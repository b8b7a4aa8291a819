package invariant

import (
	"strings"
	"testing"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// baseEvents builds a small, fully valid trace on a 100-node machine:
// j1 (60 nodes) runs [0,100); j2 (50 nodes) waits behind it under a
// protected reservation at t=100, then runs [100,250). One checkpoint
// fires at t=50 with j2 queued.
func baseEvents() []Event {
	return []Event{
		{T: 0, Kind: KindArrive, JobID: 1, Nodes: 60, Walltime: 100, Runtime: 100, Submit: 0},
		{T: 0, Kind: KindArrive, JobID: 2, Nodes: 50, Walltime: 200, Runtime: 150, Submit: 0},
		{T: 0, Kind: KindStart, JobID: 1, BlockNodes: 60},
		{T: 0, Kind: KindReserve, JobID: 2, ResStart: 100},
		{T: 50, Kind: KindCheckpoint, QD: units.Duration(50).Minutes()},
		{T: 100, Kind: KindEnd, JobID: 1, Final: job.Finished},
		{T: 100, Kind: KindStart, JobID: 2, BlockNodes: 50},
		{T: 250, Kind: KindEnd, JobID: 2, Final: job.Finished},
	}
}

func baseTrace(events []Event) *Trace {
	return &Trace{TotalNodes: 100, FairnessTolerance: units.Minute, Events: events}
}

func baseReported() Reported {
	return Reported{
		AvgWaitMinutes: (0 + units.Duration(100).Minutes()) / 2,
		UtilAvg:        float64(60*100+50*150) / (100 * 250),
		SpanSeconds:    250,
		Started:        2,
		Finished:       2,
	}
}

// mustFlag asserts the checker reports at least one violation of the
// named invariant on the planted trace.
func mustFlag(t *testing.T, inv string, tr *Trace, rep Reported) {
	t.Helper()
	vs := Check(tr, rep)
	for _, v := range vs {
		if v.Invariant == inv {
			return
		}
	}
	t.Fatalf("planted %s violation not reported; got: %s", inv, Join(vs))
}

// The base trace must replay clean — a checker that fails valid traces
// is as useless as one that passes everything.
func TestCheckCleanTrace(t *testing.T) {
	if vs := Check(baseTrace(baseEvents()), baseReported()); len(vs) != 0 {
		t.Fatalf("clean trace reported violations: %s", Join(vs))
	}
}

// Every invariant in the catalog, each with a planted violation the
// checker must catch — no silent-pass checkers.
func TestCheckPlantedViolations(t *testing.T) {
	t.Run("monotonic-clock", func(t *testing.T) {
		ev := baseEvents()
		ev[5].T = 40 // j1's end steps backwards past the t=50 checkpoint
		mustFlag(t, InvClock, baseTrace(ev), baseReported())
	})

	t.Run("lifecycle-never-completed", func(t *testing.T) {
		ev := baseEvents()[:7] // j2 never ends
		mustFlag(t, InvLifecycle, baseTrace(ev), baseReported())
	})

	t.Run("lifecycle-double-start", func(t *testing.T) {
		ev := baseEvents()
		ev[6].JobID = 1 // j1 starts a second time instead of j2
		mustFlag(t, InvLifecycle, baseTrace(ev), baseReported())
	})

	t.Run("start-before-arrival", func(t *testing.T) {
		ev := baseEvents()
		ev[1].Submit = 150 // j2 claims submission after its t=100 start
		mustFlag(t, InvArrival, baseTrace(ev), baseReported())
	})

	t.Run("capacity-exceeded", func(t *testing.T) {
		ev := baseEvents()
		// j2 jumps the queue at t=50 while j1 still holds 60 of the 100
		// nodes: 110 busy.
		ev[5] = Event{T: 50, Kind: KindStart, JobID: 2, BlockNodes: 50}
		ev[6] = Event{T: 100, Kind: KindEnd, JobID: 1, Final: job.Finished}
		ev[7].T = 200 // start 50 + runtime 150
		mustFlag(t, InvCapacity, baseTrace(ev), baseReported())
	})

	t.Run("capacity-undershoot", func(t *testing.T) {
		ev := baseEvents()
		ev[6].BlockNodes = 45 // footprint smaller than j2's 50-node request
		mustFlag(t, InvCapacity, baseTrace(ev), baseReported())
	})

	t.Run("double-booking", func(t *testing.T) {
		ev := baseEvents()
		ev[2].Units = []int{0, 1}
		// j2 starts at t=80 on midplane 1, which j1 holds until t=100.
		ev[5] = Event{T: 80, Kind: KindStart, JobID: 2, BlockNodes: 50, Units: []int{1, 2}}
		ev[6] = Event{T: 100, Kind: KindEnd, JobID: 1, Final: job.Finished}
		ev[7].T = 230 // start 80 + runtime 150
		mustFlag(t, InvOverlap, baseTrace(ev), baseReported())
	})

	t.Run("walltime-termination", func(t *testing.T) {
		ev := baseEvents()
		ev[7].T = 260 // j2 ends past start + min(runtime, walltime)
		mustFlag(t, InvWalltime, baseTrace(ev), baseReported())
	})

	t.Run("walltime-final-state", func(t *testing.T) {
		ev := baseEvents()
		ev[7].Final = job.Killed // runtime < walltime cannot kill
		mustFlag(t, InvWalltime, baseTrace(ev), baseReported())
	})

	t.Run("reservation-start-delayed", func(t *testing.T) {
		ev := baseEvents()
		ev[3].ResStart = 80 // promise t=80, but j2 starts at t=100
		mustFlag(t, InvReservation, baseTrace(ev), baseReported())
	})

	t.Run("reservation-regressed", func(t *testing.T) {
		ev := baseEvents()
		// A second grant to the continuing holder moves the promise
		// later with no lapse in between.
		ev = append(ev[:5], append([]Event{
			{T: 50, Kind: KindReserve, JobID: 2, ResStart: 120},
		}, ev[5:]...)...)
		mustFlag(t, InvReservation, baseTrace(ev), baseReported())
	})

	t.Run("metrics-census", func(t *testing.T) {
		rep := baseReported()
		rep.Started = 3
		mustFlag(t, InvMetrics, baseTrace(baseEvents()), rep)
	})

	t.Run("metrics-queue-depth", func(t *testing.T) {
		ev := baseEvents()
		ev[4].QD += 1 // engine-reported depth off by a minute
		mustFlag(t, InvMetrics, baseTrace(ev), baseReported())
	})

	t.Run("metrics-utilization", func(t *testing.T) {
		rep := baseReported()
		rep.UtilAvg *= 1.01
		mustFlag(t, InvMetrics, baseTrace(baseEvents()), rep)
	})

	t.Run("retune-static-policy-moved", func(t *testing.T) {
		ev := baseEvents()
		ev[4].HasTunables = true
		ev[4].BFBefore, ev[4].BFAfter = 1, 0.7 // non-adaptive run retuned
		ev[4].WBefore, ev[4].WAfter = 1, 1
		mustFlag(t, InvRetune, baseTrace(ev), baseReported())
	})
}

// A reservation lapse legitimizes a later re-grant to the same holder;
// the same re-grant without the lapse is a violation (planted above in
// reservation-regressed).
func TestCheckLapseDischargesPromise(t *testing.T) {
	ev := baseEvents()
	ev = append(ev[:5], append([]Event{
		{T: 50, Kind: KindLapse, JobID: 2},
		{T: 50, Kind: KindReserve, JobID: 2, ResStart: 120},
	}, ev[5:]...)...)
	if vs := Check(baseTrace(ev), baseReported()); len(vs) != 0 {
		t.Fatalf("lapse + fresh grant flagged: %s", Join(vs))
	}
}

// The retune checker replays the paper's rules from the recorded
// monitor inputs: a transition the rules do not produce is flagged, the
// one they do produce passes.
func TestCheckRetuneRule(t *testing.T) {
	mk := func(bfAfter float64) (*Trace, Reported) {
		ev := baseEvents()
		ev[4].HasTunables = true
		ev[4].BFBefore, ev[4].WBefore = 1, 1
		ev[4].BFAfter, ev[4].WAfter = bfAfter, 1
		// Queue depth 50/60 ≈ 0.83 min is at or above the 0.5-minute
		// threshold, so the rule demands BF 1 -> 0.5.
		ev[4].RuleInputs = [][2]float64{{units.Duration(50).Minutes(), 0}}
		tr := baseTrace(ev)
		tr.Adaptive, tr.RulesKnown = true, true
		tr.Rules = []TuningRule{{
			Target: "BF", Kind: RuleQueueDepth,
			ThresholdMinutes: 0.5, Delta: 0.5, Min: 0.5, Max: 1,
		}}
		return tr, baseReported()
	}
	if vs := Check(mk(0.5)); len(vs) != 0 {
		t.Fatalf("rule-conforming retune flagged: %s", Join(vs))
	}
	tr, rep := mk(1.0)
	mustFlag(t, InvRetune, tr, rep)
}

// VerifyWindow is the exhaustive W! oracle. On a machine where order
// matters — 5 of 10 nodes busy until t=50, a full-machine job and a
// half-machine job queued — scheduling the full-machine job first
// wastes the idle half (span 250); the reverse order backfills it first
// (span 200). The oracle must accept the optimal order and reject the
// other.
func TestVerifyWindowPlantedSuboptimal(t *testing.T) {
	m := machine.NewFlat(10)
	if _, ok := m.TryStart(99, 5, 0, 50); !ok {
		t.Fatal("setup: busy job did not start")
	}
	window := []*job.Job{
		{ID: 1, Nodes: 10, Walltime: 100},
		{ID: 2, Nodes: 5, Walltime: 100},
	}
	plan := m.Plan(0)
	if err := VerifyWindow(plan, window, 0, []int{1, 0}, false); err != nil {
		t.Fatalf("optimal order rejected: %v", err)
	}
	err := VerifyWindow(plan, window, 0, []int{0, 1}, false)
	if err == nil || !strings.Contains(err.Error(), InvWindow) {
		t.Fatalf("suboptimal order accepted (err = %v)", err)
	}
	if err := VerifyWindow(plan, window, 0, []int{0, 0}, false); err == nil {
		t.Fatal("non-permutation accepted")
	}
}

// CheckEngineState is the per-step structural audit: a machine whose
// allocation census disagrees with the engine's running set is flagged,
// as are a queued job in the wrong state and a job that is queued and
// running at once, whether as one object or as two sharing an ID.
func TestCheckEngineStatePlanted(t *testing.T) {
	m := machine.NewFlat(10)
	run := &job.Job{ID: 1, Nodes: 4, Walltime: 100, Runtime: 100}
	if _, ok := m.TryStart(run.ID, run.Nodes, 0, run.Walltime); !ok {
		t.Fatal("setup: job did not start")
	}
	run.State = job.Running

	if err := CheckEngineState(m, 10, nil, []*job.Job{run}); err != nil {
		t.Fatalf("consistent state flagged: %v", err)
	}
	if err := CheckEngineState(m, 10, nil, nil); err == nil ||
		!strings.Contains(err.Error(), InvState) {
		t.Fatalf("allocation census mismatch not flagged (err = %v)", err)
	}
	q := &job.Job{ID: 2, Nodes: 1, Walltime: 10, Runtime: 10, State: job.Running}
	if err := CheckEngineState(m, 10, []*job.Job{q}, []*job.Job{run}); err == nil {
		t.Fatal("mis-stated queued job not flagged")
	}
	twin := &job.Job{ID: run.ID, Nodes: 1, Walltime: 10, Runtime: 10, State: job.Queued}
	for _, queued := range []*job.Job{run, twin} {
		if err := CheckEngineState(m, 10, []*job.Job{queued}, []*job.Job{run}); err == nil ||
			!strings.Contains(err.Error(), "both queued and running") {
			t.Fatalf("job %d queued and running at once not flagged (err = %v)", queued.ID, err)
		}
	}
}
