package core

import (
	"testing"
	"time"

	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// The what-if planner is the one stateful monitor: a clone gets its own,
// and checkpoints on the clone never reach the original's counters.
func TestTunerCloneIsolatesWhatIfPlanner(t *testing.T) {
	p := whatif.NewPlanner(whatif.Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}})
	tu := NewTuner(WhatIf(p))
	if got, ok := tu.WhatIfPlanner(); !ok || got != p {
		t.Fatal("WhatIfPlanner does not return the configured planner")
	}
	e := lookEnvWithQueue()
	tu.Checkpoint(e, e)
	c := tu.Clone().(*Tuner)
	cp, ok := c.WhatIfPlanner()
	if !ok || cp == nil {
		t.Fatal("clone lost its planner")
	}
	if cp == p {
		t.Fatal("clone shares the original planner — fork decisions would corrupt the live log")
	}
	for i := 0; i < 5; i++ {
		c.Checkpoint(e, e)
	}
	if got := p.Status().Ticks; got != 1 {
		t.Errorf("clone checkpoints leaked into the original planner: %d ticks, want 1", got)
	}
	if got := cp.Status().Ticks; got != 5 {
		t.Errorf("clone planner saw %d ticks, want 5", got)
	}
}

// lookEnv wraps a schedtest env with a scripted Lookahead: candidate
// i's rollout averages scores[i] minutes of wait (default 10).
type lookEnv struct {
	sched.Env
	scores []float64
	seen   [][2]float64 // (BF, W) of each candidate offered, in order
}

func (l *lookEnv) QueueDepthMinutes() float64           { return 0 }
func (l *lookEnv) UtilWindowAvg(units.Duration) float64 { return 0 }

func (l *lookEnv) Lookahead(cands []sched.Scheduler, horizon units.Duration, _ int,
	_ time.Duration) ([]sched.Rollout, bool) {
	l.seen = l.seen[:0]
	out := make([]sched.Rollout, len(cands))
	for i, c := range cands {
		ma, ok := c.(*MetricAware)
		if !ok {
			return nil, false
		}
		bf, w := ma.Tunables()
		l.seen = append(l.seen, [2]float64{bf, float64(w)})
		s := 10.0
		if i < len(l.scores) {
			s = l.scores[i]
		}
		out[i] = sched.Rollout{
			Valid: true, Horizon: horizon, Started: 1,
			WaitSum: units.Duration(s * float64(units.Minute)), TotalNodes: 1,
		}
	}
	return out, true
}

func lookEnvWithQueue(scores ...float64) *lookEnv {
	return &lookEnv{
		Env:    schedtest.New(machine.NewFlat(1), schedtest.J(1, 0, 2, 100, 60)),
		scores: scores,
	}
}

func TestWhatIfSchemeJointCommit(t *testing.T) {
	p := whatif.NewPlanner(whatif.Config{
		BFGrid: []float64{0.5, 1}, WGrid: []int{1, 2},
	})
	tu := NewTuner(WhatIf(p))
	if tu.Name() != "adaptive(whatif)" {
		t.Errorf("Name = %q", tu.Name())
	}
	if bf, w := tu.Tunables(); bf != 1 || w != 1 {
		t.Fatalf("initial tunables (%g,%d), want planner defaults (1,1)", bf, w)
	}
	// Candidate order is incumbent (1,1), then (0.5,1),(0.5,2),(1,2);
	// index 2 wins.
	e := lookEnvWithQueue(10, 8, 4, 9)
	tu.Checkpoint(e, e)
	if bf, w := tu.Tunables(); bf != 0.5 || w != 2 {
		t.Errorf("tunables after commit (%g,%d), want (0.5,2)", bf, w)
	}
	want := [][2]float64{{1, 1}, {0.5, 1}, {0.5, 2}, {1, 2}}
	if len(e.seen) != len(want) {
		t.Fatalf("offered %d candidates, want %d", len(e.seen), len(want))
	}
	for i, w := range want {
		if e.seen[i] != w {
			t.Errorf("candidate %d = %v, want %v (incumbent-first grid)", i, e.seen[i], w)
		}
	}
	// The next checkpoint's incumbent is the committed pair.
	e2 := lookEnvWithQueue(3) // incumbent now best: no switch
	tu.Checkpoint(e2, e2)
	if e2.seen[0] != [2]float64{0.5, 2} {
		t.Errorf("second tick incumbent %v, want the committed (0.5,2)", e2.seen[0])
	}
	if bf, w := tu.Tunables(); bf != 0.5 || w != 2 {
		t.Errorf("incumbent-best tick moved tunables to (%g,%d)", bf, w)
	}
}

func TestWhatIfStatusReporter(t *testing.T) {
	tu := NewTuner(WhatIf(whatif.NewPlanner(whatif.Config{
		BFGrid: []float64{0.5, 1}, WGrid: []int{1},
	})))
	var r whatif.Reporter = tu
	st, ok := r.WhatIfStatus()
	if !ok {
		t.Fatal("tuner with a what-if scheme reports no status")
	}
	if st.Ticks != 0 {
		t.Errorf("fresh planner ticks = %d", st.Ticks)
	}
	e := lookEnvWithQueue(10, 2)
	tu.Checkpoint(e, e)
	st, _ = r.WhatIfStatus()
	if st.Ticks != 1 || st.Commits != 1 {
		t.Errorf("after one committing tick: ticks=%d commits=%d", st.Ticks, st.Commits)
	}
	// A threshold-only tuner reports none.
	if _, ok := NewTuner(PaperBFScheme(30)).WhatIfStatus(); ok {
		t.Error("threshold tuner claims a what-if status")
	}
}

func TestWhatIfCombinedSchemeName(t *testing.T) {
	tu := NewTuner(PaperBFScheme(30), WhatIf(whatif.NewPlanner(whatif.Config{})))
	if tu.Name() != "adaptive(BF+whatif)" {
		t.Errorf("Name = %q", tu.Name())
	}
}
