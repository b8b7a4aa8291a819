package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"amjs/internal/job"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

func TestScoreWait(t *testing.T) {
	if got := ScoreWait(50, 100); got != 50 {
		t.Errorf("ScoreWait(50,100) = %v", got)
	}
	if got := ScoreWait(100, 100); got != 100 {
		t.Errorf("oldest job must score 100: %v", got)
	}
	if got := ScoreWait(0, 100); got != 0 {
		t.Errorf("fresh job must score 0: %v", got)
	}
	// Paper's stated edge case: empty-queue arrival (max wait 0).
	if got := ScoreWait(0, 0); got != 0 {
		t.Errorf("ScoreWait(0,0) = %v, want 0", got)
	}
	if got := ScoreWait(-5, 100); got != 0 {
		t.Errorf("negative wait must clamp to 0: %v", got)
	}
}

func TestScoreRuntime(t *testing.T) {
	// Shortest job scores 100, longest scores 0.
	if got := ScoreRuntime(100, 100, 500); got != 100 {
		t.Errorf("shortest = %v, want 100", got)
	}
	if got := ScoreRuntime(500, 100, 500); got != 0 {
		t.Errorf("longest = %v, want 0", got)
	}
	if got := ScoreRuntime(300, 100, 500); got != 50 {
		t.Errorf("middle = %v, want 50", got)
	}
	// Paper's stated edge case: single job in queue.
	if got := ScoreRuntime(300, 300, 300); got != 0 {
		t.Errorf("degenerate = %v, want 0", got)
	}
}

func TestBalancedPriority(t *testing.T) {
	if got := BalancedPriority(80, 20, 1); got != 80 {
		t.Errorf("BF=1 must be pure S_w: %v", got)
	}
	if got := BalancedPriority(80, 20, 0); got != 20 {
		t.Errorf("BF=0 must be pure S_r: %v", got)
	}
	if got := BalancedPriority(80, 20, 0.5); got != 50 {
		t.Errorf("BF=0.5 = %v, want 50", got)
	}
}

func TestScoreBoundsProperty(t *testing.T) {
	f := func(wait, waitMax, wall, wallMin, wallMax uint16, bfRaw uint8) bool {
		lo, hi := units.Duration(wallMin), units.Duration(wallMax)
		if lo > hi {
			lo, hi = hi, lo
		}
		w := units.Duration(wall)
		if w < lo {
			w = lo
		}
		if w > hi {
			w = hi
		}
		wt := units.Duration(wait)
		wm := units.Duration(waitMax)
		if wt > wm {
			wt, wm = wm, wt
		}
		sw := ScoreWait(wt, wm)
		sr := ScoreRuntime(w, lo, hi)
		bf := float64(bfRaw) / 255
		sp := BalancedPriority(sw, sr, bf)
		inRange := func(x float64) bool { return x >= 0 && x <= 100 && !math.IsNaN(x) }
		return inRange(sw) && inRange(sr) && inRange(sp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func TestPrioritizeBF1IsFCFS(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(3, 200, 10, 50, 25),
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
	}
	got := ids(Prioritize(1000, queue, 1))
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("BF=1 order %v, want FCFS [1 2 3]", got)
	}
}

func TestPrioritizeBF0IsSJF(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
		schedtest.J(3, 200, 10, 50, 25),
	}
	got := ids(Prioritize(1000, queue, 0))
	if !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Errorf("BF=0 order %v, want SJF [3 2 1]", got)
	}
}

func TestPrioritizeMatchesReferenceOrdersProperty(t *testing.T) {
	// BF=1 must agree with sched.SubmitOrder and BF=0 with
	// sched.ShortestFirst on arbitrary queues, and each single-feature
	// scorer with the sched order ranking the same feature: the two
	// packages share one comparator, sched.ComparePriority.
	f := func(specs []uint32) bool {
		if len(specs) > 40 {
			specs = specs[:40]
		}
		queue := make([]*job.Job, len(specs))
		for i, s := range specs {
			queue[i] = schedtest.J(i+1, units.Time(s%5000), 1+int(s%64),
				units.Duration(60+s%10000), units.Duration(30+s%5000))
		}
		now := units.Time(10000)
		if !reflect.DeepEqual(ids(Prioritize(now, queue, 1)), ids(sched.SubmitOrder(now, queue))) {
			return false
		}
		if !reflect.DeepEqual(ids(Prioritize(now, queue, 0)), ids(sched.ShortestFirst(now, queue))) {
			return false
		}
		for _, c := range []struct {
			sc    Scorer
			order sched.Order
		}{
			{LargeJobScorer(1), sched.LargestFirst},
			{SmallJobScorer(1), sched.SmallestFirst},
			{ShortJobScorer(1), sched.ShortestFirst},
		} {
			if !reflect.DeepEqual(ids(MultiPrioritize(now, queue, []Scorer{c.sc})), ids(c.order(now, queue))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The scorer pass sums Eq. (3)'s pair from zero; the result must be
// bit-equal to BalancedPriority, or BF=0.5 goldens would drift.
func TestBalancedScorerBitEqualProperty(t *testing.T) {
	f := func(specs []uint32, bfRaw uint8) bool {
		if len(specs) == 0 {
			return true
		}
		if len(specs) > 40 {
			specs = specs[:40]
		}
		queue := make([]*job.Job, len(specs))
		for i, s := range specs {
			queue[i] = schedtest.J(i+1, units.Time(s%5000), 1+int(s%64),
				units.Duration(60+s%10000), units.Duration(30+s%5000))
		}
		now := units.Time(10000)
		bf := float64(bfRaw) / 255
		var waitMax units.Duration
		wallMin, wallMax := queue[0].Walltime, queue[0].Walltime
		for _, j := range queue {
			waitMax = max(waitMax, j.WaitAt(now))
			wallMin, wallMax = min(wallMin, j.Walltime), max(wallMax, j.Walltime)
		}
		var p prioScratch
		sc := balanced(bf)
		p.prioritize(now, queue, sc[:])
		for _, e := range p.entries {
			want := BalancedPriority(ScoreWait(e.j.WaitAt(now), waitMax),
				ScoreRuntime(e.j.Walltime, wallMin, wallMax), bf)
			if math.Float64bits(e.score) != math.Float64bits(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrioritizeEmpty(t *testing.T) {
	if got := Prioritize(0, nil, 0.5); got != nil {
		t.Errorf("empty queue: %v", got)
	}
}

func TestPrioritizeDoesNotMutateInput(t *testing.T) {
	queue := []*job.Job{
		schedtest.J(1, 0, 10, 9000, 4000),
		schedtest.J(2, 100, 10, 100, 80),
	}
	Prioritize(1000, queue, 0)
	if queue[0].ID != 1 || queue[1].ID != 2 {
		t.Error("Prioritize mutated its input")
	}
}
