package sim

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// A completion and an arrival at the same instant: the completion must
// be processed first so the freed nodes are visible to the arrival's
// scheduling pass (the arrival starts immediately).
func TestSimultaneousEndAndArrival(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 10, 100, 100),  // ends at exactly t=100
		schedtest.J(2, 100, 10, 100, 50), // arrives at t=100
	}
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewFCFS()}, jobs)
	byID := job.ByID(res.Jobs)
	if byID[2].Start != 100 {
		t.Errorf("arrival at completion instant started at %v, want 100", byID[2].Start)
	}
	if byID[2].Wait() != 0 {
		t.Errorf("wait = %v, want 0", byID[2].Wait())
	}
}

// Many simultaneous arrivals must all be queued before the single
// scheduling pass, so the scheduler sees the whole batch.
func TestBatchArrivalsSeenTogether(t *testing.T) {
	// SJF across a simultaneous batch: the shortest of the batch runs
	// first even though it has the highest ID.
	jobs := []*job.Job{
		schedtest.J(1, 0, 10, 1000, 900),
		schedtest.J(2, 0, 10, 500, 400),
		schedtest.J(3, 0, 10, 100, 50),
	}
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewSJF()}, jobs)
	byID := job.ByID(res.Jobs)
	if byID[3].Start != 0 {
		t.Errorf("shortest batch job started at %v, want 0", byID[3].Start)
	}
	if !(byID[2].Start < byID[1].Start) {
		t.Errorf("SJF order violated: %v vs %v", byID[2].Start, byID[1].Start)
	}
}

// The multi-metric scheduler must run complete traces through the
// engine, and its two-term configuration must match NewMetricAware.
func TestMultiMetricEndToEnd(t *testing.T) {
	cfg := workload.Mini(21)
	cfg.MaxJobs = 80
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewPartition(8, 64)
	two, err := Run(Config{Machine: m, Scheduler: core.NewMetricAware(0.5, 2)}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(Config{
		Machine:   m,
		Scheduler: core.NewMultiMetric(2, core.WaitScorer(0.5), core.ShortJobScorer(0.5)),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := job.ByID(two.Jobs), job.ByID(multi.Jobs)
	for id := range a {
		if a[id].Start != b[id].Start {
			t.Fatalf("job %d: two-term start %v != multi-metric start %v", id, a[id].Start, b[id].Start)
		}
	}
	// A three-term system-cost mix must also complete.
	mix, err := Run(Config{
		Machine: m,
		Scheduler: core.NewMultiMetric(2,
			core.WaitScorer(0.4), core.ShortJobScorer(0.4), core.LowCostScorer(0.2)),
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix.Jobs) != len(jobs) {
		t.Errorf("multi-metric mix completed %d of %d", len(mix.Jobs), len(jobs))
	}
}

// The fairness oracle freezes adaptive tuning: the nested run must use
// the tuner's current parameters without checkpoint-driven changes, and
// must not perturb the outer tuner's state.
func TestFairnessOracleFreezesAdaptiveState(t *testing.T) {
	var jobs []*job.Job
	jobs = append(jobs, schedtest.J(1, 0, 10, 4*units.Hour, 4*units.Hour))
	for i := 2; i <= 20; i++ {
		jobs = append(jobs, schedtest.J(i, units.Time(i*60), 5, units.Hour, 30*units.Minute))
	}
	res := run(t, Config{
		Machine:   machine.NewFlat(10),
		Scheduler: core.NewTuner(core.PaperBFScheme(60)),
		Fairness:  true,
	}, jobs)
	if len(res.FairStarts) != len(jobs) {
		t.Fatalf("fair starts recorded for %d of %d jobs", len(res.FairStarts), len(jobs))
	}
	// The run must complete deterministically twice (oracle clones must
	// not leak state between runs).
	res2 := run(t, Config{
		Machine:   machine.NewFlat(10),
		Scheduler: core.NewTuner(core.PaperBFScheme(60)),
		Fairness:  true,
	}, jobs)
	if res.Metrics.UnfairCount() != res2.Metrics.UnfairCount() {
		t.Errorf("unfair counts differ across runs: %d vs %d",
			res.Metrics.UnfairCount(), res2.Metrics.UnfairCount())
	}
}

// FCFS without backfilling can never treat a job unfairly under the
// no-later-arrival definition: later jobs cannot overtake.
func TestStrictFCFSIsFair(t *testing.T) {
	cfg := workload.Mini(17)
	cfg.MaxJobs = 60
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{
		Machine:   machine.NewFlat(512),
		Scheduler: sched.NewFCFS(),
		Fairness:  true,
	}, jobs)
	if got := res.Metrics.UnfairCount(); got != 0 {
		t.Errorf("strict FCFS produced %d unfair jobs", got)
	}
}

// Checkpoints must stop once the system drains, so simulations
// terminate even with adaptive schedulers attached.
func TestCheckpointsTerminate(t *testing.T) {
	jobs := []*job.Job{schedtest.J(1, 0, 4, 60, 30)}
	res := run(t, Config{
		Machine:       machine.NewFlat(10),
		Scheduler:     core.NewTuner(core.PaperWScheme()),
		CheckInterval: units.Minute,
	}, jobs)
	// One 30-second job: only the pre-scheduled checkpoint (plus at most
	// one trailing) may fire.
	if res.Metrics.QD.Len() > 3 {
		t.Errorf("checkpoints kept firing: %d samples", res.Metrics.QD.Len())
	}
}

// Slowdown metrics must be collected alongside waits.
func TestSlowdownSummary(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 10, 100, 100),
		schedtest.J(2, 0, 10, 100, 100), // waits 100, runtime 100 → slowdown 2
	}
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewFCFS()}, jobs)
	m := res.Metrics
	if m.StartedCount() != 2 || m.MaxBSLD() != 2 || m.AvgBSLD() != 1.5 {
		t.Errorf("slowdowns wrong: %d started, max %v, mean %v", m.StartedCount(), m.MaxBSLD(), m.AvgBSLD())
	}
}

// Rejections, kills and checkpointless runs together.
func TestMixedDegenerateInputs(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 9999, 60, 30), // rejected
		schedtest.J(2, 0, 4, 60, 60),    // exact walltime
	}
	res := run(t, Config{
		Machine:       machine.NewFlat(8),
		Scheduler:     sched.NewEASY(),
		CheckInterval: units.Hour,
	}, jobs)
	if len(res.Rejected) != 1 || len(res.Jobs) != 1 {
		t.Fatalf("rejected=%d accepted=%d", len(res.Rejected), len(res.Jobs))
	}
	if res.Jobs[0].State != job.Finished {
		t.Errorf("state = %v", res.Jobs[0].State)
	}
}

// The event trace must record every lifecycle event exactly once per
// job and never fire inside nested fairness simulations.
func TestEventTrace(t *testing.T) {
	var buf bytes.Buffer
	jobs := []*job.Job{
		schedtest.J(1, 0, 10, 100, 100),
		schedtest.J(2, 5, 10, 100, 50),
	}
	_ = run(t, Config{
		Machine:   machine.NewFlat(10),
		Scheduler: sched.NewEASY(),
		Fairness:  true, // nested sims must not write to the trace
		Trace:     &buf,
	}, jobs)
	out := buf.String()
	for _, ev := range []string{"arrive", "start", "end"} {
		if got := strings.Count(out, ev+" job="); got != 2 {
			t.Errorf("trace has %d %q events, want 2:\n%s", got, ev, out)
		}
	}
}

// TestMultiMetricScheduleHash pins the §V multi-metric scheduler's
// exact schedule, and the fairness oracle's fair starts over it, on a
// seeded trace: a change to how the queue is ranked must not move a
// single start.
func TestMultiMetricScheduleHash(t *testing.T) {
	cfg := workload.Mini(17)
	cfg.MaxJobs = 120
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{
		Machine:   machine.NewPartition(8, 64),
		Scheduler: core.NewMultiMetric(2, core.WaitScorer(0.5), core.SmallJobScorer(0.3), core.LowCostScorer(0.2)),
		Fairness:  true,
	}, jobs)
	h := scheduleHash(res)
	if got := hex.EncodeToString(h[:]); got != multiMetricHash {
		t.Errorf("schedule hash %s, want %s", got, multiMetricHash)
	}
	var fair units.Duration
	for id, ts := range res.FairStarts {
		fair += units.Duration(ts) * units.Duration(id)
	}
	if fair != multiMetricFair {
		t.Errorf("fair-start checksum %d, want %d", fair, multiMetricFair)
	}
}

const (
	multiMetricHash = "3aa3400a013831311e1a96b8206e8a50b922b0609ca753335a874332d5898bca"
	multiMetricFair = 857042133
)

// TestMetricAwareYearScheduleHash pins the exact schedule of the
// at-scale configuration — MetricAware(0.5, 5) on Intrepid — over the
// first 10,000 jobs of the seeded Intrepid year: a change to the window
// search or the pass must not move a single start. The pass's own
// audits check its claims against what it did; only a hash sees a
// change that keeps those claims true.
func TestMetricAwareYearScheduleHash(t *testing.T) {
	year := workload.IntrepidYear(42)
	jobs, err := year.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, Config{Machine: machine.NewIntrepid(), Scheduler: core.NewMetricAware(0.5, 5)}, jobs[:10_000])
	h := scheduleHash(res)
	if got := hex.EncodeToString(h[:]); got != metricAwareYearHash {
		t.Errorf("schedule hash %s, want %s", got, metricAwareYearHash)
	}
}

const metricAwareYearHash = "e84c48288fa64bb1484c45eb5f3a20791b1e9e742aa0a1c4a524db6b6c7eb07e"

// TestPaperScaleBackfillScheduleHashes pins EASY on the whole seeded
// intrepid-heavy trace and conservative backfilling on its first 800
// jobs (the whole trace takes half a minute), both on Intrepid: the
// paper-scale schedules of the two baselines, which the small-trace
// family pins below cannot reach.
func TestPaperScaleBackfillScheduleHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale replay")
	}
	for _, c := range []struct {
		name string
		jobs int
		s    sched.Scheduler
		want string
	}{
		{"easy", 0, sched.NewEASY(), "11e15f102d10ace5bef3e851a029811b08771eedc2f97aac2e765011e3df43ec"},
		{"conservative", 800, sched.NewConservative(), "00a8b955f72868191d7676c03e519f1d4337df7bf9f36e47c1b09f5e9534aa2b"},
	} {
		cfg := workload.IntrepidHeavy(42)
		cfg.MaxJobs = c.jobs
		jobs, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, Config{Machine: machine.NewIntrepid(), Scheduler: c.s}, jobs)
		h := scheduleHash(res)
		if got := hex.EncodeToString(h[:]); got != c.want {
			t.Errorf("%s: schedule hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBackfillFamilyScheduleHashes pins the exact schedule of every
// queue-order/reservation-depth policy — strict lists, first fit, EASY,
// conservative, relaxed, the WFP, UNICEF and size orders, fair share
// and dynP — on each machine model,
// Paranoid on, plus fairness-on legs for a strict list and fair share:
// a refactor of the backfill pass must not move a single start.
func TestBackfillFamilyScheduleHashes(t *testing.T) {
	cfg := workload.Mini(23)
	cfg.MaxJobs = 400
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"fcfs", func() sched.Scheduler { return sched.NewFCFS() }},
		{"sjf", func() sched.Scheduler { return sched.NewSJF() }},
		{"ljf", func() sched.Scheduler { return sched.NewLJF() }},
		{"firstfit", func() sched.Scheduler { return sched.NewFirstFit() }},
		{"easy", func() sched.Scheduler { return sched.NewEASY() }},
		{"conservative", func() sched.Scheduler { return sched.NewConservative() }},
		{"relaxed:10", func() sched.Scheduler { return sched.NewRelaxed(10 * units.Minute) }},
		{"wfp", func() sched.Scheduler { return sched.NewWFP() }},
		{"unicef", func() sched.Scheduler { return sched.NewUNICEF() }},
		{"largest", func() sched.Scheduler { return sched.NewLargest() }},
		{"smallest", func() sched.Scheduler { return sched.NewSmallest() }},
		{"fairshare:6h", func() sched.Scheduler { return sched.NewFairShare(6 * units.Hour) }},
		{"dynp", func() sched.Scheduler { return sched.NewDynP() }},
	}
	machines := []struct {
		name string
		mk   func() machine.Machine
	}{
		{"flat", func() machine.Machine { return machine.NewFlat(512) }},
		{"partition", func() machine.Machine { return machine.NewPartition(8, 64) }},
		{"torus", func() machine.Machine { return machine.NewTorus(2, 2, 2, 64) }},
	}
	got := make(map[string]string)
	leg := func(name string, cfg Config) {
		cfg.Paranoid = true
		res := run(t, cfg, jobs)
		h := scheduleHash(res)
		got[name] = hex.EncodeToString(h[:8])
		if cfg.Fairness {
			var fair units.Duration
			for id, ts := range res.FairStarts {
				fair += units.Duration(ts) * units.Duration(id)
			}
			got[name] += fmt.Sprintf("/%d", fair)
		}
	}
	for _, m := range machines {
		for _, p := range policies {
			leg(p.name+"@"+m.name, Config{Machine: m.mk(), Scheduler: p.mk()})
		}
	}
	leg("fcfs@partition+fair", Config{Machine: machines[1].mk(), Scheduler: sched.NewFCFS(), Fairness: true})
	leg("fairshare:6h@partition+fair", Config{Machine: machines[1].mk(), Scheduler: sched.NewFairShare(6 * units.Hour), Fairness: true})

	for name, h := range got {
		if want := backfillFamilyHashes[name]; h != want {
			t.Errorf("%s: schedule hash %s, want %s", name, h, want)
		}
	}
	if len(got) != len(backfillFamilyHashes) {
		t.Errorf("ran %d legs, pinned %d", len(got), len(backfillFamilyHashes))
	}
}

var backfillFamilyHashes = map[string]string{
	"conservative@flat":           "8eef95b12fa276ff",
	"conservative@partition":      "7bf9803f00a49790",
	"conservative@torus":          "9c5bc555dd8676a3",
	"dynp@flat":                   "aba86e52421afd05",
	"dynp@partition":              "c3417c035f7e16fb",
	"dynp@torus":                  "1dee5c91bb56ae6b",
	"easy@flat":                   "45e1addfa35694fd",
	"easy@partition":              "1eb08a8efe5d30c8",
	"easy@torus":                  "4e2f15136fa3c309",
	"fairshare:6h@flat":           "097dff2828618a3d",
	"fairshare:6h@partition":      "f4055cdfaef099c3",
	"fairshare:6h@partition+fair": "f4055cdfaef099c3/6964692275",
	"fairshare:6h@torus":          "e1f3c09265ba8e40",
	"fcfs@flat":                   "a997546d4e60ae89",
	"fcfs@partition":              "da7d123fbe567478",
	"fcfs@partition+fair":         "da7d123fbe567478/7951758536",
	"fcfs@torus":                  "b421cb5d2167cdbe",
	"firstfit@flat":               "16d0777232315fb3",
	"firstfit@partition":          "c160376c6dd6399f",
	"firstfit@torus":              "5fb4180ba474ab32",
	"largest@flat":                "47719eb9bed390dd",
	"largest@partition":           "80d9660bbf2e0595",
	"largest@torus":               "ee1908a471f4de00",
	"ljf@flat":                    "ee17cb2d6313636f",
	"ljf@partition":               "1a82fff306d640f6",
	"ljf@torus":                   "2147494d7ba0e08a",
	"relaxed:10@flat":             "7fdec4d5d1053a62",
	"relaxed:10@partition":        "02ba4300ca7a2037",
	"relaxed:10@torus":            "61496898aba970c5",
	"sjf@flat":                    "59817c7fe6fd5569",
	"sjf@partition":               "79a61056c89152ca",
	"sjf@torus":                   "a6b8148c3b2bb00e",
	"smallest@flat":               "eaae7599fda12035",
	"smallest@partition":          "0a2116cd1b2f041c",
	"smallest@torus":              "a182db082248511e",
	"unicef@flat":                 "db0b1ef8f52fd152",
	"unicef@partition":            "4b5eb61aa4b196bb",
	"unicef@torus":                "a866c5e24912eb88",
	"wfp@flat":                    "5aeb6356f3c98842",
	"wfp@partition":               "283386fdef12c3b3",
	"wfp@torus":                   "bd8e9fcb3ca1433b",
}
