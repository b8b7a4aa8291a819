// Benchmarks regenerating the paper's tables and figures at reduced
// scale, plus micro-benchmarks of the load-bearing primitives.
//
// BenchmarkScheduleIteration reproduces Table III directly: the cost of
// one scheduling pass per window size on a congested machine. The
// Fig3/Fig4/Fig5/Fig6/Table2 benchmarks each run the corresponding
// experiment's simulations on a cut-down trace and report the headline
// metric via b.ReportMetric, so `go test -bench` regenerates the shape
// of every figure. Full-scale numbers come from cmd/amjs-experiments.
package amjs_test

import (
	"testing"

	"amjs"
	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/sim"
	"amjs/internal/stats"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// benchJobs generates the standard benchmark trace: a few hundred jobs
// on the 512-node mini machine.
func benchJobs(b *testing.B, seed int64, n int) []*job.Job {
	b.Helper()
	cfg := workload.Mini(seed)
	cfg.MaxJobs = n
	jobs, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

func benchMachine() machine.Machine { return machine.NewPartition(8, 64) }

// runSim runs one simulation inside a benchmark loop iteration.
func runSim(b *testing.B, s sched.Scheduler, jobs []*job.Job, fairness bool) *sim.Result {
	b.Helper()
	res, err := sim.Run(sim.Config{Machine: benchMachine(), Scheduler: s, Fairness: fairness}, jobs)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkScheduleIteration is Table III: the wall time of a single
// scheduling iteration per window size, on a congested state (machine
// ~full, deep queue). The paper's claim is superlinear growth in W that
// still fits far inside the ~10 s production scheduling period.
func BenchmarkScheduleIteration(b *testing.B) {
	jobs := benchJobs(b, 42, 300)
	m := benchMachine()
	// Fill the machine, then queue the next 48 jobs.
	i := 0
	for ; i < len(jobs) && m.BusyNodes() < m.TotalNodes()*8/10; i++ {
		j := jobs[i]
		m.TryStart(j.ID, j.Nodes, 0, j.Walltime)
	}
	var queue []*job.Job
	for ; i < len(jobs) && len(queue) < 48; i++ {
		j := jobs[i].Clone()
		j.Submit = units.Time(len(queue))
		j.State = job.Queued
		queue = append(queue, j)
	}
	for _, w := range []int{1, 2, 3, 4, 5} {
		b.Run(benchName("W", w), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				env := schedtest.New(m.Clone(), job.CloneAll(queue)...)
				env.T = 10
				core.NewMetricAware(0.5, w).Schedule(env)
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + string(rune('0'+v))
}

// BenchmarkFig3 runs the metric-balancing sweep's corner points and
// reports average wait (minutes), unfair count, and LoC (%).
func BenchmarkFig3(b *testing.B) {
	jobs := benchJobs(b, 42, 200)
	for _, c := range []struct {
		name string
		bf   float64
		w    int
	}{
		{"BF=1.00/W=1", 1, 1},
		{"BF=0.50/W=1", 0.5, 1},
		{"BF=0.00/W=1", 0, 1},
		{"BF=1.00/W=5", 1, 5},
		{"BF=0.50/W=5", 0.5, 5},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				res = runSim(b, core.NewMetricAware(c.bf, c.w), jobs, true)
			}
			m := res.Metrics
			b.ReportMetric(m.AvgWaitMinutes(), "wait-min")
			b.ReportMetric(float64(m.UnfairCount()), "unfair")
			b.ReportMetric(m.LoC()*100, "loc-%")
		})
	}
}

// BenchmarkFig4 runs the queue-depth experiment: static balance factors
// versus adaptive BF tuning; reports mean and max queue depth.
func BenchmarkFig4(b *testing.B) {
	jobs := benchJobs(b, 42, 250)
	threshold := 500.0
	for _, c := range []struct {
		name string
		s    func() sched.Scheduler
	}{
		{"BF=1.00", func() sched.Scheduler { return core.NewMetricAware(1, 1) }},
		{"BF=0.75", func() sched.Scheduler { return core.NewMetricAware(0.75, 1) }},
		{"BF=0.50", func() sched.Scheduler { return core.NewMetricAware(0.5, 1) }},
		{"adaptive", func() sched.Scheduler { return core.NewTuner(core.PaperBFScheme(threshold)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				res = runSim(b, c.s(), jobs, false)
			}
			b.ReportMetric(stats.Mean(res.Metrics.QD.Values), "meanQD-min")
			b.ReportMetric(res.Metrics.QD.MaxValue(), "maxQD-min")
		})
	}
}

// BenchmarkFig5 runs the utilization experiment: static W versus
// adaptive window tuning; reports utilization and the stability of the
// 10-hour rolling average (standard deviation — lower is the paper's
// "stabilized" claim).
func BenchmarkFig5(b *testing.B) {
	jobs := benchJobs(b, 42, 250)
	for _, c := range []struct {
		name string
		s    func() sched.Scheduler
	}{
		{"static-W1", func() sched.Scheduler { return core.NewMetricAware(1, 1) }},
		{"adaptive-W", func() sched.Scheduler { return core.NewTuner(core.PaperWScheme()) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				res = runSim(b, c.s(), jobs, false)
			}
			b.ReportMetric(res.Metrics.UtilAvg()*100, "util-%")
			b.ReportMetric(100*stats.StdDev(res.Metrics.Util10H.Values), "stddev10H-%")
			b.ReportMetric(res.Metrics.LoC()*100, "loc-%")
		})
	}
}

// BenchmarkFig6 runs two-dimensional tuning against the static base and
// reports the combined metrics.
func BenchmarkFig6(b *testing.B) {
	jobs := benchJobs(b, 42, 250)
	threshold := 500.0
	for _, c := range []struct {
		name string
		s    func() sched.Scheduler
	}{
		{"static-base", func() sched.Scheduler { return core.NewMetricAware(1, 1) }},
		{"2D-adaptive", func() sched.Scheduler {
			return core.NewTuner(core.PaperBFScheme(threshold), core.PaperWScheme())
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				res = runSim(b, c.s(), jobs, false)
			}
			b.ReportMetric(res.Metrics.AvgWaitMinutes(), "wait-min")
			b.ReportMetric(stats.Mean(res.Metrics.QD.Values), "meanQD-min")
			b.ReportMetric(100*stats.StdDev(res.Metrics.Util10H.Values), "stddev10H-%")
		})
	}
}

// BenchmarkTable2 runs the seven configurations of Table II with the
// fairness oracle and reports all three paper metrics.
func BenchmarkTable2(b *testing.B) {
	jobs := benchJobs(b, 42, 200)
	threshold := 500.0
	for _, c := range []struct {
		name string
		s    func() sched.Scheduler
	}{
		{"BF=1/W=1", func() sched.Scheduler { return core.NewMetricAware(1, 1) }},
		{"BF=1/W=4", func() sched.Scheduler { return core.NewMetricAware(1, 4) }},
		{"BF=0.5/W=1", func() sched.Scheduler { return core.NewMetricAware(0.5, 1) }},
		{"BF=0.5/W=4", func() sched.Scheduler { return core.NewMetricAware(0.5, 4) }},
		{"BF-adapt", func() sched.Scheduler { return core.NewTuner(core.PaperBFScheme(threshold)) }},
		{"W-adapt", func() sched.Scheduler { return core.NewTuner(core.PaperWScheme()) }},
		{"2D-adapt", func() sched.Scheduler {
			return core.NewTuner(core.PaperBFScheme(threshold), core.PaperWScheme())
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				res = runSim(b, c.s(), jobs, true)
			}
			m := res.Metrics
			b.ReportMetric(m.AvgWaitMinutes(), "wait-min")
			b.ReportMetric(float64(m.UnfairCount()), "unfair")
			b.ReportMetric(m.LoC()*100, "loc-%")
		})
	}
}

// BenchmarkAblation compares the two window-mechanism design choices
// DESIGN.md calls out: the window objective (least makespan vs most
// immediate utilization) and reservation placement (priority order vs
// permutation order).
func BenchmarkAblation(b *testing.B) {
	jobs := benchJobs(b, 42, 250)
	for _, c := range []struct {
		name      string
		utilFirst bool
		permOrder bool
	}{
		{"makespan+priority", false, false},
		{"makespan+permorder", false, true},
		{"utilfirst+priority", true, false},
		{"utilfirst+permorder", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				s := core.NewMetricAware(0.5, 4)
				s.UtilizationFirst = c.utilFirst
				s.PermOrderReservation = c.permOrder
				res = runSim(b, s, jobs, false)
			}
			b.ReportMetric(res.Metrics.AvgWaitMinutes(), "wait-min")
			b.ReportMetric(res.Metrics.LoC()*100, "loc-%")
			b.ReportMetric(res.Metrics.MaxWaitMinutes(), "maxwait-min")
		})
	}
}

// BenchmarkSimEndToEnd measures full trace simulation throughput
// (jobs/sec) under the metric-aware policy — the cost that bounds how
// many seeds and configurations an evaluation campaign can afford. The
// fairness=on variants pay for one nested no-later-arrival simulation
// per submission; the periodic variants run the production ~10 s
// scheduling cadence (§IV-D), where most ticks change nothing and the
// engine's pass elision applies.
func BenchmarkSimEndToEnd(b *testing.B) {
	jobs := benchJobs(b, 42, 400)
	for _, c := range []struct {
		name     string
		fairness bool
		period   units.Duration
	}{
		{"event/fair=off", false, 0},
		{"event/fair=on", true, 0},
		{"periodic/fair=off", false, 10 * units.Second},
		{"periodic/fair=on", true, 10 * units.Second},
	} {
		b.Run(c.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				_, err := sim.Run(sim.Config{
					Machine:        benchMachine(),
					Scheduler:      core.NewMetricAware(0.5, 4),
					Fairness:       c.fairness,
					SchedulePeriod: c.period,
				}, jobs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimAtScale is the full-machine benchmark: the 80x512
// Intrepid model replaying the 50k-job year-long calibrated trace under
// the metric-aware policy — the scale of the paper's production
// evaluation and the cost that bounds year-scale policy studies. The
// trace is generated once and cloned per iteration; the reported
// jobs/s is the end-to-end simulation throughput.
func BenchmarkSimAtScale(b *testing.B) {
	cfg := workload.IntrepidYear(42)
	jobs, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("trace: %d jobs over %.0f days", len(jobs),
		(jobs[len(jobs)-1].Submit.Sub(jobs[0].Submit)).HoursF()/24)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, err := sim.Run(sim.Config{
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewMetricAware(0.5, 5),
		}, jobs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkFairPeriodic is the fairness oracle at the paper's scale: the
// Table II configuration — the Intrepid month, MetricAware(0.5, 4),
// fairness on, 10 s scheduling ticks — where nearly all of the time goes
// to diverged fair worlds, which run on the other cores while the main
// schedule advances. `make profile` writes its fair-cpu.prof and
// fair-mem.prof.
func BenchmarkFairPeriodic(b *testing.B) {
	month := workload.Intrepid(42)
	jobs, err := month.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, err := sim.Run(sim.Config{
			Machine:        machine.NewIntrepid(),
			Scheduler:      core.NewMetricAware(0.5, 4),
			Fairness:       true,
			SchedulePeriod: 10 * units.Second,
		}, jobs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSimWhatIf measures the simulation-in-the-loop tuner against
// the threshold-rule tuner it replaces: end-to-end throughput plus the
// planner's own accounting — the mean wall cost of one lookahead tick
// (every candidate rollout at a checkpoint) and the fraction of the
// whole run spent inside lookahead. On this small trace the steered
// simulation is light, so the overhead is most of the run;
// BenchmarkSimWhatIfMonth measures the tuner at the workload's scale.
func BenchmarkSimWhatIf(b *testing.B) {
	jobs := benchJobs(b, 42, 400)
	for _, c := range []struct {
		name   string
		s      func() sched.Scheduler
		period units.Duration
	}{
		{"rules/event", func() sched.Scheduler {
			return core.NewTuner(core.PaperBFScheme(500), core.PaperWScheme())
		}, 0},
		{"whatif/event", func() sched.Scheduler {
			return core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{})))
		}, 0},
		{"whatif/periodic", func() sched.Scheduler {
			return core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{})))
		}, 10 * units.Second},
	} {
		b.Run(c.name, func(b *testing.B) {
			var res *sim.Result
			for n := 0; n < b.N; n++ {
				var err error
				res, err = sim.Run(sim.Config{
					Machine:        benchMachine(),
					Scheduler:      c.s(),
					SchedulePeriod: c.period,
				}, jobs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			if ws := res.WhatIf; ws != nil && ws.LatCount > 0 {
				perRunSec := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(ws.LatSumSec/float64(ws.LatCount)*1e3, "tick-ms")
				b.ReportMetric(ws.LatSumSec/perRunSec*100, "overhead-%")
				b.ReportMetric(float64(ws.Commits), "commits")
			}
		})
	}
}

// BenchmarkSimWhatIfMonth is the what-if tuner at the workload's scale:
// the whatif-stream benchmark configuration (the default planner over
// MetricAware on the Intrepid model, event-driven) replaying the Intrepid
// month under sim.Run. The 400-job SimWhatIf trace spends its time
// elsewhere; here, as in the workload, the rollouts dominate. Besides
// jobs/s it reports the planner's exact per-run counters: rollouts
// scored, scheduling passes executed inside rollouts, and rollouts
// answered wholly or partly from the incumbent's prefix. `make profile`
// writes its whatif-cpu.prof and whatif-mem.prof.
func BenchmarkSimWhatIfMonth(b *testing.B) {
	month := workload.Intrepid(42)
	jobs, err := month.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *sim.Result
	for n := 0; n < b.N; n++ {
		res, err = sim.Run(sim.Config{
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewTuner(core.WhatIf(whatif.NewPlanner(whatif.Config{}))),
		}, jobs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	ws := res.WhatIf
	b.ReportMetric(float64(ws.Evaluated), "rollouts")
	b.ReportMetric(float64(ws.RolloutPasses), "rollout_passes")
	b.ReportMetric(float64(ws.RolloutsShared), "rollouts_shared")
}

// BenchmarkFairnessOracle isolates the cost of the nested fair-start
// simulations relative to a plain run.
func BenchmarkFairnessOracle(b *testing.B) {
	jobs := benchJobs(b, 42, 150)
	for _, fair := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(fair.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				runSim(b, sched.NewEASY(), jobs, fair.on)
			}
		})
	}
}

// --- micro-benchmarks of the primitives ---

func BenchmarkPlanEarliestStart(b *testing.B) {
	for _, mc := range []struct {
		name string
		m    machine.Machine
	}{
		{"flat", machine.NewFlat(40960)},
		{"partition", machine.NewIntrepid()},
	} {
		// 40 running jobs.
		for i := 0; i < 40; i++ {
			mc.m.TryStart(i, 512+(i%8)*512, 0, units.Duration(1000+i*321))
		}
		b.Run(mc.name, func(b *testing.B) {
			plan := mc.m.Plan(0)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				plan.EarliestStart(4096, 3600)
			}
		})
	}
}

// BenchmarkPlanStartableNowOverlays probes StartableNow on an Intrepid
// plan in mid-pass: the machine is fragmented across both bitset words
// (holes on either side of midplane 63/64), and the plan already holds
// a protected reservation plus the window search's speculative starts,
// so every probe has to mask the overlays. One op is five probes, one
// per block width from 1 to 16 midplanes.
func BenchmarkPlanStartableNowOverlays(b *testing.B) {
	m := machine.NewIntrepid()
	holes := map[int]bool{3: true, 12: true, 13: true, 63: true, 64: true, 65: true}
	for s := 24; s < 28; s++ {
		holes[s] = true
	}
	for s := 40; s < 48; s++ {
		holes[s] = true
	}
	for s := 72; s < 80; s++ {
		holes[s] = true
	}
	for s := 0; s < m.Midplanes(); s++ {
		if !holes[s] {
			m.TryStartAt(s, 512, 0, units.Duration(1800+s*97), s)
		}
	}
	plan := m.Plan(0)
	ts, hint := plan.EarliestStart(16*512, 7200) // the protected reservation
	plan.Commit(16*512, ts, 7200, hint)
	for _, nodes := range []int{512, 1024, 2048} { // speculative window starts
		ts, hint := plan.EarliestStart(nodes, 1800)
		plan.Commit(nodes, ts, 1800, hint)
	}
	sizes := []int{512, 1024, 2048, 4096, 8192}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, nodes := range sizes {
			plan.StartableNow(nodes, 3600)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sizes)), "ns/probe")
}

// BenchmarkPlanBuild is the per-pass plan cost on a loaded Intrepid:
// Plan(now), one EarliestStart per width class (1 to 64 midplanes and
// the 80-midplane full system), and Recycle, as a pass builds, probes
// and hands back its plan. Two midplanes are idle and every other one
// holds a job with its own release, so the narrow classes answer now
// and the wide ones scan their release cursors. It reports allocations:
// a warm plan allocates nothing.
func BenchmarkPlanBuild(b *testing.B) {
	m := machine.NewIntrepid()
	for s := 0; s < m.Midplanes(); s++ {
		if s != 17 && s != 70 {
			m.TryStartAt(s, 512, 0, units.Duration(1800+s*97), s)
		}
	}
	widths := []int{1, 2, 4, 8, 16, 32, 64, 80}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		plan := m.Plan(600)
		for _, w := range widths {
			plan.EarliestStart(w*512, 3600)
		}
		m.Recycle(plan)
	}
}

func BenchmarkPlanCommit(b *testing.B) {
	m := machine.NewIntrepid()
	for i := 0; i < 40; i++ {
		m.TryStart(i, 512+(i%8)*512, 0, units.Duration(1000+i*321))
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		plan := m.Plan(0)
		ts, hint := plan.EarliestStart(4096, 3600)
		plan.Commit(4096, ts, 3600, hint)
	}
}

func BenchmarkPrioritize(b *testing.B) {
	jobs := benchJobs(b, 1, 500)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		core.Prioritize(units.Time(3*units.Day), jobs, 0.5)
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	for n := 0; n < b.N; n++ {
		cfg := workload.Mini(int64(n))
		cfg.MaxJobs = 200
		if _, err := cfg.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeSimulation(b *testing.B) {
	cfg := amjs.MiniWorkload(42)
	cfg.MaxJobs = 150
	jobs, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := amjs.Run(amjs.SimConfig{
			Machine:   amjs.NewPartitionMachine(8, 64),
			Scheduler: amjs.NewMetricAware(0.5, 2),
		}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
