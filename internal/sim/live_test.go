package sim

import (
	"bytes"
	"errors"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/stats"
	"amjs/internal/units"
	"amjs/internal/workload"
)

// A Live session fed the whole trace and drained must reproduce Run
// byte for byte: the same schedule, the same metrics, and the same
// event trace — the daemon's speedup=∞ equivalence guarantee.
func TestLiveEquivalence(t *testing.T) {
	jobs := streamTestTrace(t, 31, 300)
	configs := map[string]Config{
		"event": {
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewMetricAware(0.5, 5),
			Paranoid:  true,
		},
		"periodic": {
			Machine:        machine.NewIntrepid(),
			Scheduler:      core.NewMetricAware(0.5, 5),
			SchedulePeriod: 10 * units.Second,
			Paranoid:       true,
		},
		"adaptive": {
			Machine:   machine.NewIntrepid(),
			Scheduler: core.NewTuner(core.PaperBFScheme(1000), core.PaperWScheme()),
			Paranoid:  true,
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			var batchTrace, liveTrace bytes.Buffer

			batchCfg := cfg
			batchCfg.Trace = &batchTrace
			want, err := Run(batchCfg, jobs)
			if err != nil {
				t.Fatal(err)
			}

			liveCfg := cfg
			liveCfg.Trace = &liveTrace
			l, err := NewLive(liveCfg, false)
			if err != nil {
				t.Fatal(err)
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
				t.Fatal(err)
			}

			if rejected != want.RejectedCount || l.Accepted() != want.AcceptedCount {
				t.Errorf("census = %d/%d, want %d/%d",
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
			g, w := l.Collector(), want.Metrics
			if g.UtilAvg() != w.UtilAvg() || g.LoC() != w.LoC() ||
				g.AvgWaitMinutes() != w.AvgWaitMinutes() {
				t.Error("live metrics differ from batch metrics")
			}
			if g.QD.Len() != w.QD.Len() {
				t.Errorf("checkpoint count = %d, want %d", g.QD.Len(), w.QD.Len())
			}
			if !bytes.Equal(liveTrace.Bytes(), batchTrace.Bytes()) {
				t.Error("live event trace differs from batch trace")
			}
		})
	}
}

// Cancelling the job holding the EASY protected reservation must free
// the reservation at the very next scheduling pass: a backfill
// candidate previously blocked by it starts immediately instead of
// waiting for the reservation's start instant.
func TestLiveCancelReservedJob(t *testing.T) {
	cases := map[string]struct {
		period    units.Duration
		wantStart units.Time // j3's start after the cancel
	}{
		// Event-driven: the next pass after the cancel runs at the
		// t=1800 checkpoint.
		"event": {period: 0, wantStart: 1800},
		// Periodic: the cancel dirties the engine, so the tick right
		// after the cancel horizon (t=130) runs a real pass.
		"periodic": {period: 10 * units.Second, wantStart: 130},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			mk := func() (*Live, *job.Job, *job.Job, *job.Job) {
				l, err := NewLive(Config{
					Machine:        machine.NewFlat(100),
					Scheduler:      core.NewMetricAware(0.5, 5),
					SchedulePeriod: tc.period,
					Paranoid:       true,
				}, false)
				if err != nil {
					t.Fatal(err)
				}
				// j1 holds 50 nodes until t=7200; j2 needs the whole
				// machine and gets the protected reservation at 7200;
				// j3 fits the idle half but its walltime crosses the
				// reservation, so it cannot backfill while j2 waits.
				j1, err := l.Submit(&job.Job{ID: 1, User: "a", Submit: 0, Nodes: 50,
					Walltime: 2 * units.Hour, Runtime: 2 * units.Hour})
				if err != nil {
					t.Fatal(err)
				}
				j2, err := l.Submit(&job.Job{ID: 2, User: "b", Submit: 60, Nodes: 100,
					Walltime: units.Hour, Runtime: units.Hour})
				if err != nil {
					t.Fatal(err)
				}
				j3, err := l.Submit(&job.Job{ID: 3, User: "c", Submit: 120, Nodes: 50,
					Walltime: 2 * units.Hour, Runtime: 10 * units.Minute})
				if err != nil {
					t.Fatal(err)
				}
				if err := l.AdvanceTo(120); err != nil {
					t.Fatal(err)
				}
				if j1.State != job.Running || j2.State != job.Queued || j3.State != job.Queued {
					t.Fatalf("setup states = %v/%v/%v", j1.State, j2.State, j3.State)
				}
				return l, j1, j2, j3
			}

			// Control: with the reservation in place, j3 cannot backfill;
			// it runs only after j1 ends (7200) and the whole-machine j2
			// completes (10800).
			l, _, _, j3 := mk()
			if err := l.Drain(); err != nil {
				t.Fatal(err)
			}
			if j3.Start != 10800 {
				t.Fatalf("control: j3 started at %v, want 10800 (blocked by reservation)", j3.Start)
			}

			// Cancel the reservation holder: j3 must start at the next
			// pass, not at the stale reservation's instant.
			l, _, j2, j3 := mk()
			if !l.Cancel(2) {
				t.Fatal("cancel of queued job refused")
			}
			if err := l.Drain(); err != nil {
				t.Fatal(err)
			}
			if j2.State != job.Cancelled {
				t.Errorf("j2 state = %v, want cancelled", j2.State)
			}
			if j3.Start != tc.wantStart {
				t.Errorf("j3 started at %v, want %v (stale reservation delayed backfill)",
					j3.Start, tc.wantStart)
			}
			if l.QueueLen() != 0 {
				t.Errorf("queue not empty after drain: %d", l.QueueLen())
			}
		})
	}
}

// Cancelling between submission and arrival keeps the job out of the
// queue entirely, and started jobs are not cancellable.
func TestLiveCancelBeforeArrival(t *testing.T) {
	l, err := NewLive(Config{
		Machine:   machine.NewFlat(100),
		Scheduler: core.NewMetricAware(0.5, 5),
		Paranoid:  true,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := l.Submit(&job.Job{ID: 1, User: "a", Submit: 0, Nodes: 10,
		Walltime: units.Hour, Runtime: units.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := l.Submit(&job.Job{ID: 2, User: "b", Submit: 600, Nodes: 10,
		Walltime: units.Hour, Runtime: units.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Cancel(2) { // still Submitted: arrival instant not yet processed
		t.Fatal("cancel of submitted job refused")
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}
	if j2.State != job.Cancelled || j2.Start != 0 {
		t.Errorf("j2 = %v (start %v), want cancelled and never started", j2.State, j2.Start)
	}
	if j1.State != job.Finished {
		t.Errorf("j1 state = %v, want finished", j1.State)
	}
	if l.Cancel(1) {
		t.Error("cancel of a finished job must be refused")
	}
	if l.Cancelled() != 1 {
		t.Errorf("cancelled census = %d, want 1", l.Cancelled())
	}
}

// A checkpoint landing exactly on the queue-depth threshold must yield
// the same BF decision in every engine mode. The setup pins the
// boundary: one queued job has waited exactly 30 minutes at the first
// C_i checkpoint, so queue depth == threshold and the paper's ≥ trigger
// fires E_m (BF 1 → 0.5) — in Run, RunStream, and a Live session alike.
func TestTunerThresholdBoundaryAgreement(t *testing.T) {
	const thresholdMinutes = 30
	mkCfg := func() Config {
		return Config{
			Machine:   machine.NewFlat(100),
			Scheduler: core.NewTuner(core.PaperBFScheme(thresholdMinutes)),
			Paranoid:  true,
		}
	}
	jobs := []*job.Job{
		// Fills the machine for two hours.
		{ID: 1, User: "a", Submit: 0, Nodes: 100, Walltime: 2 * units.Hour, Runtime: 2 * units.Hour},
		// Queued at t=0: at the first checkpoint (t=1800) its wait is
		// exactly 30.0 minutes — the threshold itself.
		{ID: 2, User: "b", Submit: 0, Nodes: 50, Walltime: units.Hour, Runtime: units.Hour},
	}

	batch, err := Run(mkCfg(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunStream(mkCfg(), workload.SliceSource(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLive(mkCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := l.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Drain(); err != nil {
		t.Fatal(err)
	}

	wantBF := batch.Metrics.BF
	if wantBF.Len() < 2 {
		t.Fatalf("batch run recorded %d BF samples, want at least 2", wantBF.Len())
	}
	// The collector samples BF before the checkpoint retunes, so the
	// boundary decision at t=1800 (depth == threshold must fire E_m
	// under the paper's ≥ rule) shows up in the second sample.
	if wantBF.Values[0] != 1 || wantBF.Values[1] != 0.5 {
		t.Fatalf("batch BF samples = %v, want [1 0.5 ...] (≥ threshold fires E_m at the boundary)",
			wantBF.Values)
	}
	compareBF := func(name string, got stats.Series) {
		t.Helper()
		if got.Len() != wantBF.Len() {
			t.Fatalf("%s: BF series has %d samples, batch %d", name, got.Len(), wantBF.Len())
		}
		for i := range wantBF.Values {
			if got.Times[i] != wantBF.Times[i] || got.Values[i] != wantBF.Values[i] {
				t.Fatalf("%s: BF[%d] = (%v, %v), batch (%v, %v)", name, i,
					got.Times[i], got.Values[i], wantBF.Times[i], wantBF.Values[i])
			}
		}
	}
	compareBF("runstream", streamed.Metrics.BF)
	compareBF("live", l.Collector().BF)

	// The tuning decision must translate into the same schedule: job 2
	// starts at the same instant everywhere.
	for name, j2 := range map[string]*job.Job{
		"runstream": streamed.Jobs[1],
	} {
		if j2.Start != batch.Jobs[1].Start {
			t.Errorf("%s: job 2 started at %v, batch %v", name, j2.Start, batch.Jobs[1].Start)
		}
	}
	if lj, _ := l.Job(2); lj.Start != batch.Jobs[1].Start {
		t.Errorf("live: job 2 started at %v, batch %v", lj.Start, batch.Jobs[1].Start)
	}
}

// PredictStart answers from a plan cached per (instant, machine
// occupancy): a step that starts or ends jobs must invalidate it, even
// when the clock does not move.
func TestLivePredictionTracksOccupancy(t *testing.T) {
	l, err := NewLive(Config{Machine: machine.NewFlat(10), Scheduler: core.NewMetricAware(1, 1)}, true)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(id, nodes int, at units.Time, wall units.Duration) {
		t.Helper()
		if _, err := l.Submit(&job.Job{ID: id, User: "u", Submit: at, Nodes: nodes,
			Walltime: wall, Runtime: wall}); err != nil {
			t.Fatal(err)
		}
	}
	predict := func(id int, want units.Time) {
		t.Helper()
		if got, ok := l.PredictStart(id); !ok || got != want {
			t.Fatalf("PredictStart(%d) = %v, %v; want %v", id, got, ok, want)
		}
	}

	submit(1, 10, 0, 100)
	submit(2, 5, 0, 50)
	predict(2, 0) // empty machine: the plan is cached at t=0
	if err := l.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if l.Now() != 0 || l.RunningLen() != 1 {
		t.Fatalf("after t=0: now %v, %d running; want 0, 1", l.Now(), l.RunningLen())
	}
	predict(2, 100) // job 1 started at the same instant and holds the machine

	// Job 1 ends and job 2 starts at t=100; a job arriving at that
	// instant sees job 2's five nodes busy until t=150.
	if err := l.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	predict(2, 100)
	submit(3, 8, 100, 10)
	predict(3, 150)
}

// Steady-state submissions at one instant share a single prediction
// plan: Submit + PredictStart allocates exactly what Submit alone does.
func TestLivePredictionAllocatesNoPlanPerSubmit(t *testing.T) {
	measure := func(predict bool) float64 {
		l, err := NewLive(Config{Machine: machine.NewFlat(1 << 16), Scheduler: core.NewMetricAware(1, 1)}, true)
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		step := func() {
			id++
			if _, err := l.Submit(&job.Job{ID: id, User: "u", Submit: 60, Nodes: 1,
				Walltime: units.Hour, Runtime: units.Hour}); err != nil {
				t.Fatal(err)
			}
			if predict {
				if _, ok := l.PredictStart(id); !ok {
					t.Fatal("no prediction")
				}
			}
		}
		step() // the first submission anchors the grids and builds the plan
		return testing.AllocsPerRun(2000, step)
	}
	if with, without := measure(true), measure(false); with != without {
		t.Errorf("Submit+PredictStart allocates %v per job, Submit alone %v", with, without)
	}
}
