package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
	"amjs/internal/workload"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func run(t *testing.T, cfg Config, jobs []*job.Job) *Result {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// scheduleHash fingerprints a completed schedule: every job's identity
// and placement, in input order.
func scheduleHash(res *Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, j := range res.Jobs {
		word(int64(j.ID))
		word(int64(j.Submit))
		word(int64(j.Start))
		word(int64(j.End))
		word(int64(j.Nodes))
		word(int64(j.State))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestSingleJobLifecycle(t *testing.T) {
	j := schedtest.J(1, 100, 4, 60, 30)
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewFCFS()}, []*job.Job{j})
	got := res.Jobs[0]
	if got.Start != 100 || got.End != 130 || got.State != job.Finished {
		t.Errorf("lifecycle wrong: start=%v end=%v state=%v", got.Start, got.End, got.State)
	}
	// Caller's job untouched.
	if j.State != job.Queued || j.Start != 0 {
		t.Error("input job was mutated")
	}
	if res.Makespan != 30 {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if res.Metrics.StartedCount() != 1 || res.Metrics.FinishedCount() != 1 {
		t.Error("metrics counts wrong")
	}
}

func TestQueueingAndSequencing(t *testing.T) {
	// 10-node machine; two 10-node jobs must serialize.
	jobs := []*job.Job{
		schedtest.J(1, 0, 10, 100, 100),
		schedtest.J(2, 5, 10, 100, 80),
	}
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewFCFS()}, jobs)
	a, b := res.Jobs[0], res.Jobs[1]
	if a.Start != 0 || a.End != 100 {
		t.Errorf("first job: %v-%v", a.Start, a.End)
	}
	if b.Start != 100 || b.End != 180 {
		t.Errorf("second job: %v-%v", b.Start, b.End)
	}
	// Avg wait = (0 + 95)/2 seconds in minutes.
	if got := res.Metrics.AvgWaitMinutes(); !almost(got, 95.0/2/60) {
		t.Errorf("avg wait = %v", got)
	}
}

func TestWalltimeKill(t *testing.T) {
	j := schedtest.J(1, 0, 4, 60, 30)
	j.Runtime = 100 // exceeds walltime; engine must kill at the limit
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewFCFS()}, []*job.Job{
		{ID: 1, User: "u", Submit: 0, Nodes: 4, Walltime: 60, Runtime: 60}, // control
	})
	if res.Jobs[0].State != job.Finished {
		t.Errorf("exact-walltime job state = %v", res.Jobs[0].State)
	}
}

func TestRejectedJobs(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 99, 60, 30), // too big for an 8-node machine
		schedtest.J(2, 0, 4, 60, 30),
	}
	res := run(t, Config{Machine: machine.NewFlat(8), Scheduler: sched.NewFCFS()}, jobs)
	if len(res.Rejected) != 1 || res.Rejected[0].ID != 1 {
		t.Fatalf("rejected: %v", res.Rejected)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].State != job.Finished {
		t.Error("accepted job did not run")
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := Run(Config{Scheduler: sched.NewFCFS()}, nil); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := Run(Config{Machine: machine.NewFlat(8)}, nil); err == nil {
		t.Error("missing scheduler accepted")
	}
	bad := []*job.Job{{ID: 1, Nodes: 0, Walltime: 10, Runtime: 5}}
	if _, err := Run(Config{Machine: machine.NewFlat(8), Scheduler: sched.NewFCFS()}, bad); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestEmptyWorkload(t *testing.T) {
	res := run(t, Config{Machine: machine.NewFlat(8), Scheduler: sched.NewFCFS()}, nil)
	if len(res.Jobs) != 0 || res.Makespan != 0 {
		t.Error("empty workload result wrong")
	}
}

// The canonical EASY-unfairness scenario, end to end with exact times:
// a backfilled job (D) outlives the reservation shadow and pushes a
// blocked job (C) past its fair start.
func TestFairnessOracleDetectsEASYUnfairness(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 6, 100, 100), // A
		schedtest.J(2, 1, 7, 100, 100), // B: reserved at 100
		schedtest.J(3, 2, 8, 300, 300), // C: blocked (8 > 3 extra nodes)
		schedtest.J(4, 3, 3, 300, 300), // D: legal backfill, runs to 303
	}
	res := run(t, Config{
		Machine:   machine.NewFlat(10),
		Scheduler: sched.NewEASY(),
		Fairness:  true,
	}, jobs)
	byID := job.ByID(res.Jobs)
	if byID[2].Start != 100 {
		t.Errorf("B start = %v, want 100 (reservation held)", byID[2].Start)
	}
	if byID[4].Start != 3 {
		t.Errorf("D start = %v, want 3 (backfilled)", byID[4].Start)
	}
	if byID[3].Start != 303 {
		t.Errorf("C start = %v, want 303", byID[3].Start)
	}
	if fair := res.FairStarts[3]; fair != 200 {
		t.Errorf("C fair start = %v, want 200", fair)
	}
	if got := res.Metrics.UnfairCount(); got != 1 {
		t.Errorf("unfair count = %d, want 1 (only C)", got)
	}
	if res.Metrics.FairKnownCount() != 4 {
		t.Errorf("fair-known = %d, want 4", res.Metrics.FairKnownCount())
	}
}

// Conservative backfilling admits no unfairness at all on the same
// scenario (D may not delay C's reservation).
func TestConservativeIsFairOnEASYScenario(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 6, 100, 100),
		schedtest.J(2, 1, 7, 100, 100),
		schedtest.J(3, 2, 8, 300, 300),
		schedtest.J(4, 3, 3, 300, 300),
	}
	res := run(t, Config{
		Machine:   machine.NewFlat(10),
		Scheduler: sched.NewConservative(),
		Fairness:  true,
	}, jobs)
	if got := res.Metrics.UnfairCount(); got != 0 {
		t.Errorf("conservative unfair count = %d, want 0", got)
	}
}

// Full-trace equivalence of metric-aware(BF=1, W=1) and EASY — the
// paper's reduction claim — and of its conservative form and
// conservative backfilling, on every machine model with a realistic
// workload. The reference is Reserving, which re-derives every
// reservation each pass; sched.NewEASY and sched.NewConservative run
// the held pass MetricAware runs, so they are legs beside it.
func TestMetricAwareBF1W1MatchesEASYOnTrace(t *testing.T) {
	cfg := workload.Mini(11)
	cfg.MaxJobs = 120
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	conservativeMA := func() sched.Scheduler {
		s := core.NewMetricAware(1, 1)
		s.Conservative = true
		return s
	}
	for _, c := range []struct {
		name string
		ref  sched.Scheduler
		legs []func() sched.Scheduler
	}{
		{"easy", &sched.Reserving{Order: sched.SubmitOrder, Depth: 1}, []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewEASY() },
			func() sched.Scheduler { return core.NewMetricAware(1, 1) },
		}},
		{"conservative", &sched.Reserving{Order: sched.SubmitOrder, Depth: sched.ReserveAll}, []func() sched.Scheduler{
			func() sched.Scheduler { return sched.NewConservative() },
			conservativeMA,
		}},
	} {
		for _, m := range []machine.Machine{machine.NewFlat(512), machine.NewPartition(8, 64), machine.NewTorus(2, 2, 2, 64)} {
			ref := job.ByID(run(t, Config{Machine: m, Scheduler: c.ref.Clone()}, jobs).Jobs)
			for _, mk := range c.legs {
				s := mk()
				got := job.ByID(run(t, Config{Machine: m, Scheduler: s}, jobs).Jobs)
				if len(got) != len(ref) {
					t.Fatalf("%s %s: job counts differ", c.name, m.Name())
				}
				for id, rj := range ref {
					if gj := got[id]; gj.Start != rj.Start {
						t.Errorf("%s %s: job %d starts differ: reference=%v %s=%v",
							c.name, m.Name(), id, rj.Start, s.Name(), gj.Start)
					}
				}
			}
		}
	}
}

// Machine busy time must equal the node-time of the executed schedule —
// conservation across the whole simulation.
func TestNodeTimeConservation(t *testing.T) {
	cfg := workload.Mini(5)
	cfg.MaxJobs = 80
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pm := machine.NewPartition(8, 64)
	for _, s := range []sched.Scheduler{
		sched.NewEASY(), core.NewMetricAware(0.5, 3), sched.NewDynP(),
	} {
		res := run(t, Config{Machine: pm, Scheduler: s}, jobs)
		var wantBusy, wantUsed float64
		for _, j := range res.Jobs {
			eff := j.Runtime
			if eff > j.Walltime {
				eff = j.Walltime
			}
			wantBusy += float64(pm.PartitionNodes(j.Nodes)) * float64(eff)
			wantUsed += float64(j.Nodes) * float64(eff)
		}
		first := res.Jobs[0].Submit
		last := first
		for _, j := range res.Jobs {
			if j.End > last {
				last = j.End
			}
			if j.Submit < first {
				first = j.Submit
			}
		}
		gotBusy := res.Metrics.Busy.Integrate(first, last)
		gotUsed := res.Metrics.Used.Integrate(first, last)
		if !almost(gotBusy, wantBusy) {
			t.Errorf("%s: busy node-time %v, want %v", s.Name(), gotBusy, wantBusy)
		}
		if !almost(gotUsed, wantUsed) {
			t.Errorf("%s: used node-time %v, want %v", s.Name(), gotUsed, wantUsed)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := workload.Mini(9)
	cfg.MaxJobs = 100
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Result {
		return run(t, Config{
			Machine:   machine.NewPartition(8, 64),
			Scheduler: core.NewMetricAware(0.5, 4),
			Fairness:  true,
		}, jobs)
	}
	a, b := mk(), mk()
	aj, bj := job.ByID(a.Jobs), job.ByID(b.Jobs)
	for id := range aj {
		if aj[id].Start != bj[id].Start || aj[id].End != bj[id].End {
			t.Fatalf("job %d differs across identical runs", id)
		}
	}
	if a.Metrics.AvgWaitMinutes() != b.Metrics.AvgWaitMinutes() ||
		a.Metrics.UnfairCount() != b.Metrics.UnfairCount() ||
		a.Metrics.LoC() != b.Metrics.LoC() {
		t.Fatal("metrics differ across identical runs")
	}
}

// An adaptive tuner must engage under a deep queue (BF drops to 0.5 at
// a checkpoint) and relax after the backlog clears.
func TestAdaptiveTunerEngagesDuringRun(t *testing.T) {
	var jobs []*job.Job
	// One hog pins the machine for 6 hours while a backlog accumulates;
	// afterwards the queue drains and later checkpoints see it shallow.
	jobs = append(jobs, schedtest.J(1, 0, 10, 6*units.Hour, 6*units.Hour))
	for i := 2; i <= 30; i++ {
		jobs = append(jobs, schedtest.J(i, units.Time(i), 5, units.Hour, 30*units.Minute))
	}
	tuner := core.NewTuner(core.PaperBFScheme(100)) // 100-minute threshold
	res := run(t, Config{
		Machine:   machine.NewFlat(10),
		Scheduler: tuner,
	}, jobs)
	bfSeries := res.Metrics.BF.Values
	if len(bfSeries) == 0 {
		t.Fatal("no BF series recorded")
	}
	saw05, saw1 := false, false
	for _, v := range bfSeries {
		if v == 0.5 {
			saw05 = true
		}
		if v == 1 {
			saw1 = true
		}
	}
	if !saw05 {
		t.Errorf("tuner never engaged: BF series %v", bfSeries)
	}
	if !saw1 {
		t.Errorf("tuner never relaxed: BF series %v", bfSeries)
	}
	// The input scheduler must not have been mutated (engine clones it).
	if bf, _ := tuner.Tunables(); bf != 1 {
		t.Errorf("caller's tuner was mutated: bf=%v", bf)
	}
}

func TestCheckpointSeriesRecorded(t *testing.T) {
	jobs := []*job.Job{
		schedtest.J(1, 0, 10, 2*units.Hour, 2*units.Hour),
		schedtest.J(2, 60, 10, units.Hour, units.Hour),
	}
	res := run(t, Config{Machine: machine.NewFlat(10), Scheduler: sched.NewEASY()}, jobs)
	// 3 hours of activity at 30-minute checkpoints → several samples.
	if res.Metrics.QD.Len() < 4 {
		t.Errorf("QD samples = %d, want >= 4", res.Metrics.QD.Len())
	}
	if res.Metrics.UtilInstant.Len() != res.Metrics.QD.Len() {
		t.Error("series lengths disagree")
	}
	// While job 1 runs and job 2 waits, QD grows and util is 1.
	if res.Metrics.QD.MaxValue() <= 0 {
		t.Error("queue depth never positive")
	}
	if res.Metrics.UtilInstant.MaxValue() != 1 {
		t.Errorf("instant util max = %v", res.Metrics.UtilInstant.MaxValue())
	}
}

// All baseline schedulers must complete a realistic trace and produce
// sane aggregate metrics.
func TestAllSchedulersCompleteTrace(t *testing.T) {
	cfg := workload.Mini(13)
	cfg.MaxJobs = 80
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	scheds := []sched.Scheduler{
		sched.NewFCFS(), sched.NewSJF(), sched.NewLJF(), sched.NewFirstFit(),
		sched.NewEASY(), sched.NewConservative(), sched.NewWFP(), sched.NewDynP(),
		sched.NewRelaxed(10 * units.Minute), sched.NewFairShare(12 * units.Hour),
		core.NewMetricAware(0.75, 2), core.NewTuner(core.PaperBFScheme(500), core.PaperWScheme()),
		core.NewMultiMetric(2, core.WaitScorer(0.5), core.SmallJobScorer(0.3), core.LowCostScorer(0.2)),
	}
	for _, s := range scheds {
		res := run(t, Config{Machine: machine.NewPartition(8, 64), Scheduler: s}, jobs)
		if len(res.Jobs) != len(jobs) {
			t.Errorf("%s: completed %d of %d", s.Name(), len(res.Jobs), len(jobs))
		}
		if u := res.Metrics.UtilAvg(); u < 0 || u > 1 {
			t.Errorf("%s: util %v outside [0,1]", s.Name(), u)
		}
		if l := res.Metrics.LoC(); l < 0 || l > 1 {
			t.Errorf("%s: LoC %v outside [0,1]", s.Name(), l)
		}
	}
}
