package core_test

import (
	"testing"

	"amjs/internal/core"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sim"
	"amjs/internal/workload"
)

// sharedScheduler is a MetricAware that the engine runs itself instead
// of a clone, so its search counters can be read after the run.
type sharedScheduler struct{ *core.MetricAware }

func (s sharedScheduler) Clone() sched.Scheduler { return s }

// BenchmarkWindowSearchYear replays the 50k-job Intrepid year under
// MetricAware(0.5, 5), the BenchmarkSimAtScale configuration, and
// reports the window search's counters per run: nodes expanded,
// children skipped asleep, answers inherited, plan probes (the
// all-start check's included), children skipped as the swap of a
// lower-index twin, and cuts only the free-capacity cap made.
// reduced is the search as it runs; unreduced hands the search plans
// that call no two placements independent, which is the search without
// its partial-order reduction. Both schedules are identical; the counts
// are exact and repeat run for run.
func BenchmarkWindowSearchYear(b *testing.B) {
	year := workload.IntrepidYear(42)
	jobs, err := year.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    func() machine.Machine
	}{
		{"reduced", func() machine.Machine { return machine.NewIntrepid() }},
		{"unreduced", func() machine.Machine { return core.DependentMachine(machine.NewIntrepid()) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var st core.SearchStats
			for i := 0; i < b.N; i++ {
				s := sharedScheduler{core.NewMetricAware(0.5, 5)}
				if _, err := sim.Run(sim.Config{Machine: c.m(), Scheduler: s}, jobs); err != nil {
					b.Fatal(err)
				}
				st = s.SearchStats()
			}
			b.ReportMetric(float64(st.Nodes), "nodes/op")
			b.ReportMetric(float64(st.Asleep), "asleep/op")
			b.ReportMetric(float64(st.Inherited), "inherited/op")
			b.ReportMetric(float64(st.Probes), "probes/op")
			b.ReportMetric(float64(st.Twins), "twins/op")
			b.ReportMetric(float64(st.CapCuts), "capcuts/op")
		})
	}
}
