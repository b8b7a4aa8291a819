package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// diffTrace generates a contended workload scaled to the 512-node
// machines the differential grid uses.
func diffTrace(t *testing.T, seed int64, n int) []*job.Job {
	t.Helper()
	cfg := workload.Intrepid(seed)
	cfg.Name = "diff-512"
	cfg.MachineNodes = 512
	cfg.Sizes = []workload.SizeWeight{
		{Nodes: 32, Weight: 0.3}, {Nodes: 64, Weight: 0.3}, {Nodes: 128, Weight: 0.2},
		{Nodes: 256, Weight: 0.15}, {Nodes: 512, Weight: 0.05},
	}
	cfg.Arrival.MeanInterarrival = 5 * units.Minute
	cfg.Runtime.MedianSeconds = 1200
	cfg.Runtime.Max = 4 * units.Hour
	cfg.MaxJobs = n
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestDifferentialThreeWay sweeps a 3-machine × 8-policy × 4-mode grid
// (96 seeded configs) and demands that the batch, streaming, and live
// engines produce identical schedules under the full validity oracle:
// byte-identical event traces, the same per-job starts and final
// states, and the same reported metrics. Fairness seeds additionally
// cross-check the batched fairness oracle against the naive
// clone-everything reference.
func TestDifferentialThreeWay(t *testing.T) {
	machines := []struct {
		name string
		mk   func() machine.Machine
	}{
		{"flat", func() machine.Machine { return machine.NewFlat(512) }},
		{"partition", func() machine.Machine { return machine.NewPartition(8, 64) }},
		{"torus", func() machine.Machine { return machine.NewTorus(2, 2, 2, 64) }},
	}
	type policy struct {
		name string
		mk   func() sched.Scheduler
	}
	policies := []policy{
		{"metricaware", func() sched.Scheduler { return core.NewMetricAware(0.5, 3) }},
		{"tuner", func() sched.Scheduler {
			return core.NewTuner(core.PaperBFScheme(30), core.PaperWScheme())
		}},
		{"fcfs", func() sched.Scheduler { return sched.NewFCFS() }},
		{"sjf", func() sched.Scheduler { return sched.NewSJF() }},
		{"easy", func() sched.Scheduler { return sched.NewEASY() }},
		{"conservative", func() sched.Scheduler { return sched.NewConservative() }},
		// The what-if tuner replays nested rollouts at every checkpoint,
		// so this row pins both the schedule agreement AND the decision
		// log across engines (see runDifferential's WhatIf leg).
		{"whatif", func() sched.Scheduler {
			return core.NewTuner(core.WhatIf(testPlanner(whatif.Config{})))
		}},
	}
	modes := []struct {
		name   string
		period units.Duration
		fair   bool
		jobs   int
	}{
		{"event", 0, false, 80},
		{"periodic", 10 * units.Second, false, 80},
		{"fair", 0, true, 36},
		// Periodic passes and the fairness oracle interact: ticks fire
		// passes whose δ the batched oracle must bound and elide
		// correctly, so this mode walks the oracle's divergence frontier.
		{"fairp", 10 * units.Second, true, 30},
	}

	// The §V multi-metric ranking reports bounded horizons like the
	// Eq. 3 form, so its fair and fairp modes check that deferred fair
	// starts still equal the naive reference. Rows past the first seven
	// are seeded after the whole grid, so adding one re-seeds nothing.
	extra := []policy{
		{"multimetric", func() sched.Scheduler {
			return core.NewMultiMetric(3, core.WaitScorer(0.5), core.LargeJobScorer(0.25), core.ShortJobScorer(0.25))
		}},
	}

	seed := int64(0)
	for _, rows := range [][]policy{policies, extra} {
		for _, m := range machines {
			for _, p := range rows {
				for _, md := range modes {
					seed++
					s := seed
					name := fmt.Sprintf("%s/%s/%s", m.name, p.name, md.name)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						jobs := diffTrace(t, s, md.jobs)
						cfg := Config{
							Machine:        m.mk(),
							Scheduler:      p.mk(),
							SchedulePeriod: md.period,
							Fairness:       md.fair,
							Paranoid:       true,
						}
						runDifferential(t, cfg, jobs, md.fair)
					})
				}
			}
		}
	}
}

// TestDifferentialZoo extends the three-way grid across the policy zoo
// the tournament ranks — the size-ordered, wait-weighted, and
// fair-share orders — in event and periodic modes on all three machine
// topologies (36 more seeded configs, 132 in total with
// TestDifferentialThreeWay), all under the paranoid invariant oracle.
func TestDifferentialZoo(t *testing.T) {
	machines := []struct {
		name string
		mk   func() machine.Machine
	}{
		{"flat", func() machine.Machine { return machine.NewFlat(512) }},
		{"partition", func() machine.Machine { return machine.NewPartition(8, 64) }},
		{"torus", func() machine.Machine { return machine.NewTorus(2, 2, 2, 64) }},
	}
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"ljf", func() sched.Scheduler { return sched.NewLJF() }},
		{"largest", func() sched.Scheduler { return sched.NewLargest() }},
		{"smallest", func() sched.Scheduler { return sched.NewSmallest() }},
		{"wfp", func() sched.Scheduler { return sched.NewWFP() }},
		{"unicef", func() sched.Scheduler { return sched.NewUNICEF() }},
		{"fairshare", func() sched.Scheduler { return sched.NewFairShare(6 * units.Hour) }},
	}
	modes := []struct {
		name   string
		period units.Duration
	}{
		{"event", 0},
		{"periodic", 10 * units.Second},
	}

	seed := int64(1000) // disjoint from TestDifferentialThreeWay's traces
	for _, m := range machines {
		for _, p := range policies {
			for _, md := range modes {
				seed++
				s := seed
				name := fmt.Sprintf("%s/%s/%s", m.name, p.name, md.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					jobs := diffTrace(t, s, 80)
					cfg := Config{
						Machine:        m.mk(),
						Scheduler:      p.mk(),
						SchedulePeriod: md.period,
						Paranoid:       true,
					}
					runDifferential(t, cfg, jobs, false)
				})
			}
		}
	}
}

// runDifferential pushes one workload through all three engines under
// one config and fails on any observable disagreement.
func runDifferential(t *testing.T, cfg Config, jobs []*job.Job, fair bool) {
	t.Helper()
	var batchTrace, streamTrace, liveTrace bytes.Buffer

	batchCfg := cfg
	batchCfg.Trace = &batchTrace
	want, err := Run(batchCfg, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	streamCfg := cfg
	streamCfg.Trace = &streamTrace
	got, err := RunStream(streamCfg, workload.SliceSource(jobs), nil)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if scheduleHash(got) != scheduleHash(want) {
		t.Error("streamed schedule differs from batch schedule")
	}
	if got.Makespan != want.Makespan ||
		got.AcceptedCount != want.AcceptedCount || got.RejectedCount != want.RejectedCount {
		t.Errorf("stream census %d/%d span %v, batch %d/%d span %v",
			got.AcceptedCount, got.RejectedCount, got.Makespan,
			want.AcceptedCount, want.RejectedCount, want.Makespan)
	}
	if !bytes.Equal(streamTrace.Bytes(), batchTrace.Bytes()) {
		t.Error("streamed event trace differs from batch trace")
	}
	compareWhatIf(t, "stream", got.WhatIf, want.WhatIf)

	liveCfg := cfg
	liveCfg.Trace = &liveTrace
	l, err := NewLive(liveCfg, false)
	if err != nil {
		t.Fatalf("NewLive: %v", err)
	}
	rejected := 0
	for _, j := range jobs {
		if _, err := l.Submit(j); err != nil {
			if errors.Is(err, ErrRejected) {
				rejected++
				continue
			}
			t.Fatalf("submit job %d: %v", j.ID, err)
		}
	}
	if err := l.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rejected != want.RejectedCount || l.Accepted() != want.AcceptedCount {
		t.Errorf("live census %d/%d, batch %d/%d",
			l.Accepted(), rejected, want.AcceptedCount, want.RejectedCount)
	}
	for _, w := range want.Jobs {
		g, ok := l.Job(w.ID)
		if !ok {
			t.Fatalf("job %d missing from live session", w.ID)
		}
		if g.Start != w.Start || g.End != w.End || g.State != w.State {
			t.Fatalf("job %d: live %v [%v,%v], batch %v [%v,%v]",
				w.ID, g.State, g.Start, g.End, w.State, w.Start, w.End)
		}
	}
	lc, wc := l.Collector(), want.Metrics
	if lc.UtilAvg() != wc.UtilAvg() || lc.AvgWaitMinutes() != wc.AvgWaitMinutes() {
		t.Error("live metrics differ from batch metrics")
	}
	if lc.QD.Len() != wc.QD.Len() {
		t.Errorf("live checkpoint count %d, batch %d", lc.QD.Len(), wc.QD.Len())
	}
	if !bytes.Equal(liveTrace.Bytes(), batchTrace.Bytes()) {
		t.Error("live event trace differs from batch trace")
	}
	if lst, ok := l.WhatIfStatus(); ok {
		compareWhatIf(t, "live", &lst, want.WhatIf)
	} else if want.WhatIf != nil {
		t.Error("batch run reports a what-if status, live session does not")
	}

	if !fair {
		return
	}
	// Oracle equivalence: the incremental (deferred) oracle the batch run
	// used and the naive clone-everything reference must agree bit for
	// bit — on the schedule and on every fair start.
	refCfg := cfg
	refCfg.naiveOracle = true
	ref, err := Run(refCfg, jobs)
	if err != nil {
		t.Fatalf("Run(naive oracle): %v", err)
	}
	if scheduleHash(ref) != scheduleHash(want) {
		t.Error("naive-oracle schedule differs from incremental-oracle schedule")
	}
	if len(ref.FairStarts) != len(want.FairStarts) {
		t.Fatalf("naive oracle knows %d fair starts, incremental %d",
			len(ref.FairStarts), len(want.FairStarts))
	}
	for id, w := range want.FairStarts {
		if g, ok := ref.FairStarts[id]; !ok || g != w {
			t.Fatalf("job %d: naive fair start %v, incremental %v", id, g, w)
		}
	}
}

// compareWhatIf demands two engines reached identical what-if planner
// states: same counters and the same decision log, field by field.
// WallNS is machine timing — the one field legitimately different
// between engines — so it is excluded.
func compareWhatIf(t *testing.T, label string, got, want *whatif.Status) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s what-if status presence %v, batch %v", label, got != nil, want != nil)
		return
	}
	if want == nil {
		return
	}
	if got.Ticks != want.Ticks || got.Evaluated != want.Evaluated ||
		got.Commits != want.Commits || got.Skipped != want.Skipped ||
		got.RolloutPasses != want.RolloutPasses || got.RolloutsShared != want.RolloutsShared {
		t.Errorf("%s what-if counters ticks=%d eval=%d commits=%d skips=%d passes=%d shared=%d, batch ticks=%d eval=%d commits=%d skips=%d passes=%d shared=%d",
			label, got.Ticks, got.Evaluated, got.Commits, got.Skipped, got.RolloutPasses, got.RolloutsShared,
			want.Ticks, want.Evaluated, want.Commits, want.Skipped, want.RolloutPasses, want.RolloutsShared)
	}
	if len(got.Decisions) != len(want.Decisions) {
		t.Errorf("%s what-if logged %d decisions, batch %d", label, len(got.Decisions), len(want.Decisions))
		return
	}
	for i, w := range want.Decisions {
		g := got.Decisions[i]
		g.WallNS, w.WallNS = 0, 0
		if g != w {
			t.Errorf("%s what-if decision %d: %+v, batch %+v", label, i, g, w)
		}
	}
}
