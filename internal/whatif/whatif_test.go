package whatif

import (
	"testing"

	"time"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
)

func TestParseObjectiveRoundTrip(t *testing.T) {
	for _, o := range []Objective{AvgWait, BSLD, Utilization, Blend} {
		got, err := ParseObjective(o.String())
		if err != nil {
			t.Fatalf("ParseObjective(%q): %v", o.String(), err)
		}
		if got != o {
			t.Errorf("ParseObjective(%q) = %v, want %v", o.String(), got, o)
		}
	}
	for spec, want := range map[string]Objective{
		"wait": AvgWait, "slowdown": BSLD, "utilization": Utilization,
	} {
		got, err := ParseObjective(spec)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseObjective("latency"); err == nil {
		t.Error("ParseObjective accepted an unknown objective")
	}
}

func TestScoreOrderings(t *testing.T) {
	// A rollout with shorter waits, lower slowdown, and higher
	// utilization must score strictly better (lower) on every objective.
	good := sched.Rollout{
		Valid: true, Horizon: 2 * units.Hour,
		Started: 8, LeftQueued: 1, Completed: 5,
		WaitSum: 8 * 5 * units.Minute, BSLDSum: 9 * 1.2,
		UtilNodeSec: 0.9 * 512 * float64(2*units.Hour), TotalNodes: 512,
	}
	bad := good
	bad.WaitSum = 9 * units.Hour
	bad.BSLDSum = 9 * 8.0
	bad.UtilNodeSec = 0.4 * 512 * float64(2*units.Hour)
	for _, o := range []Objective{AvgWait, BSLD, Utilization, Blend} {
		if Score(o, good) >= Score(o, bad) {
			t.Errorf("%v: good rollout scored %g, bad %g (lower must win)",
				o, Score(o, good), Score(o, bad))
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	p := NewPlanner(Config{})
	cfg := p.Config()
	if cfg.Horizon != 2*units.Hour {
		t.Errorf("default horizon %v", cfg.Horizon)
	}
	if len(cfg.BFGrid) != 3 || len(cfg.WGrid) != 3 {
		t.Errorf("default grid %v × %v", cfg.BFGrid, cfg.WGrid)
	}
	if cfg.LogCap != 32 {
		t.Errorf("default log cap %d", cfg.LogCap)
	}
}

// fakeEnv is a minimal Env; fakeLookEnv additionally answers Lookahead
// with scripted rollouts keyed by candidate index.
type fakeEnv struct {
	now   units.Time
	queue []*job.Job
}

func (f *fakeEnv) Now() units.Time                      { return f.now }
func (f *fakeEnv) Machine() machine.Machine             { return nil }
func (f *fakeEnv) Queue() []*job.Job                    { return f.queue }
func (f *fakeEnv) StartAt(*job.Job, int) bool           { return false }
func (f *fakeEnv) QueueDepthMinutes() float64           { return 0 }
func (f *fakeEnv) UtilWindowAvg(units.Duration) float64 { return 0 }

type fakeLookEnv struct {
	fakeEnv
	// score[i] becomes candidate i's average wait (minutes); -1 marks
	// the rollout invalid. Extra candidates beyond the script tie the
	// incumbent.
	scores []float64
	calls  int
	got    int // candidate count seen by the last Lookahead
}

func (f *fakeLookEnv) Lookahead(cands []sched.Scheduler, horizon units.Duration, workers int,
	budget time.Duration) ([]sched.Rollout, bool) {
	f.calls++
	f.got = len(cands)
	out := make([]sched.Rollout, len(cands))
	for i := range cands {
		s := 10.0
		if i < len(f.scores) {
			s = f.scores[i]
		}
		if s < 0 {
			continue // invalid rollout
		}
		out[i] = sched.Rollout{
			Valid: true, Horizon: horizon, Started: 1,
			WaitSum: units.Duration(s * float64(units.Minute)), TotalNodes: 1,
		}
	}
	return out, true
}

func queuedJob() *job.Job {
	return &job.Job{ID: 1, Submit: 0, Nodes: 1, Runtime: units.Hour, Walltime: units.Hour}
}

func mkFactory(t *testing.T) func(float64, int) sched.Scheduler {
	return func(float64, int) sched.Scheduler { return nil }
}

func TestProposeSkipsWithoutLookahead(t *testing.T) {
	p := NewPlanner(Config{})
	env := &fakeEnv{queue: []*job.Job{queuedJob()}}
	if _, _, commit := p.Propose(env, env, 1, 1, mkFactory(t)); commit {
		t.Error("committed against an env without lookahead")
	}
	if st := p.Status(); st.Skipped != 1 || st.Ticks != 1 {
		t.Errorf("skips=%d ticks=%d, want 1/1", st.Skipped, st.Ticks)
	}
}

func TestProposeSkipsEmptyQueue(t *testing.T) {
	p := NewPlanner(Config{})
	env := &fakeLookEnv{}
	if _, _, commit := p.Propose(env, env, 1, 1, mkFactory(t)); commit {
		t.Error("committed with an empty queue")
	}
	if env.calls != 0 {
		t.Error("ran rollouts with an empty queue")
	}
	if st := p.Status(); st.Skipped != 1 {
		t.Errorf("skips=%d, want 1", st.Skipped)
	}
}

func TestProposeCommitsBestCandidate(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1, 2}})
	env := &fakeLookEnv{fakeEnv: fakeEnv{now: units.Time(3 * units.Hour), queue: []*job.Job{queuedJob()}}}
	// Incumbent (1,1) scores 10; candidate 2 scores 4 and must win.
	env.scores = []float64{10, 8, 4, 9}
	bf, w, commit := p.Propose(env, env, 1, 1, mkFactory(t))
	if !commit {
		t.Fatal("no commit despite a strictly better candidate")
	}
	// Grid is incumbent-first, then (0.5,1),(0.5,2),(1,2) — index 2 is (0.5,2).
	if bf != 0.5 || w != 2 {
		t.Errorf("committed (%g,%d), want (0.5,2)", bf, w)
	}
	if env.got != 4 {
		t.Errorf("planner offered %d candidates, want 4 (incumbent + 3)", env.got)
	}
	st := p.Status()
	if st.Commits != 1 || st.Evaluated != 4 {
		t.Errorf("commits=%d evaluated=%d", st.Commits, st.Evaluated)
	}
	d := st.Decisions[0]
	if d.At != units.Time(3*units.Hour) || !d.Committed || d.PrevBF != 1 || d.PrevW != 1 ||
		d.BF != 0.5 || d.W != 2 || d.PrevScore != 10 || d.Score != 4 {
		t.Errorf("decision %+v", d)
	}
}

func TestProposeTieKeepsIncumbent(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}})
	env := &fakeLookEnv{fakeEnv: fakeEnv{queue: []*job.Job{queuedJob()}}}
	env.scores = []float64{5, 5}
	if bf, w, commit := p.Propose(env, env, 1, 1, mkFactory(t)); commit {
		t.Errorf("tie committed (%g,%d); strict < must keep the incumbent", bf, w)
	}
	st := p.Status()
	if st.Commits != 0 || len(st.Decisions) != 1 || st.Decisions[0].Committed {
		t.Errorf("tie status %+v", st)
	}
}

func TestProposeObserveNeverCommits(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}, Observe: true})
	env := &fakeLookEnv{fakeEnv: fakeEnv{queue: []*job.Job{queuedJob()}}}
	env.scores = []float64{10, 1}
	if _, _, commit := p.Propose(env, env, 1, 1, mkFactory(t)); commit {
		t.Error("observe mode committed")
	}
	st := p.Status()
	if st.Commits != 0 || st.Evaluated != 2 || len(st.Decisions) != 1 {
		t.Errorf("observe status commits=%d evaluated=%d decisions=%d",
			st.Commits, st.Evaluated, len(st.Decisions))
	}
	if d := st.Decisions[0]; d.Committed || d.BF != 0.5 {
		t.Errorf("observe decision %+v — should log the would-be winner uncommitted", d)
	}
}

func TestProposeInvalidIncumbentStillSwitches(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}})
	env := &fakeLookEnv{fakeEnv: fakeEnv{queue: []*job.Job{queuedJob()}}}
	env.scores = []float64{-1, 3} // incumbent rollout invalid
	if _, _, commit := p.Propose(env, env, 1, 1, mkFactory(t)); !commit {
		t.Error("no commit when only a non-incumbent rollout is valid")
	}
}

func TestProposeAllInvalidSkips(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}})
	env := &fakeLookEnv{fakeEnv: fakeEnv{queue: []*job.Job{queuedJob()}}}
	env.scores = []float64{-1, -1}
	if _, _, commit := p.Propose(env, env, 1, 1, mkFactory(t)); commit {
		t.Error("committed with no valid rollout")
	}
	if st := p.Status(); st.Skipped != 1 || len(st.Decisions) != 0 {
		t.Errorf("skips=%d decisions=%d", st.Skipped, len(st.Decisions))
	}
}

func TestDecisionRing(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}, LogCap: 3})
	env := &fakeLookEnv{fakeEnv: fakeEnv{queue: []*job.Job{queuedJob()}}}
	env.scores = []float64{5, 5} // ties: every tick logs, nothing commits
	for i := 0; i < 5; i++ {
		env.now = units.Time(i) * units.Time(units.Hour)
		p.Propose(env, env, 1, 1, mkFactory(t))
	}
	ds := p.Decisions()
	if len(ds) != 3 {
		t.Fatalf("ring holds %d decisions, cap 3", len(ds))
	}
	for i, d := range ds {
		if want := units.Time(i+2) * units.Time(units.Hour); d.At != want {
			t.Errorf("decision %d at %v, want %v (oldest-first after wrap)", i, d.At, want)
		}
	}
}

func TestCloneMonitorIsFresh(t *testing.T) {
	p := NewPlanner(Config{BFGrid: []float64{0.5, 1}, WGrid: []int{1}})
	env := &fakeLookEnv{fakeEnv: fakeEnv{queue: []*job.Job{queuedJob()}}}
	env.scores = []float64{10, 1}
	p.Propose(env, env, 1, 1, mkFactory(t))
	c := p.CloneMonitor()
	if c == p {
		t.Fatal("CloneMonitor returned the receiver")
	}
	st := c.Status()
	if st.Ticks != 0 || st.Commits != 0 || len(st.Decisions) != 0 {
		t.Errorf("clone carries accrued state: %+v", st)
	}
	if c.Config().Horizon != p.Config().Horizon {
		t.Error("clone lost the configuration")
	}
}

func TestStatusHistogramCumulative(t *testing.T) {
	p := NewPlanner(Config{})
	p.observeLatency(500 * time.Microsecond)
	p.observeLatency(3 * time.Millisecond)
	p.observeLatency(2 * time.Second) // overflow bucket
	st := p.Status()
	if st.LatCount != 3 {
		t.Fatalf("LatCount %d", st.LatCount)
	}
	if n := len(st.LatBuckets); n != len(latBounds)+1 {
		t.Fatalf("%d buckets, want %d", n, len(latBounds)+1)
	}
	last := st.LatBuckets[len(st.LatBuckets)-1]
	if last.LE != -1 || last.N != 3 {
		t.Errorf("+Inf bucket %+v, want cumulative 3", last)
	}
	for i := 1; i < len(st.LatBuckets); i++ {
		if st.LatBuckets[i].N < st.LatBuckets[i-1].N {
			t.Fatalf("histogram not cumulative at bucket %d", i)
		}
	}
	if st.LatBuckets[0].N != 1 {
		t.Errorf("first bucket %d, want 1 (the 500µs sample)", st.LatBuckets[0].N)
	}
}
