package core

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"amjs/internal/invariant"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

func TestNewMetricAwareValidation(t *testing.T) {
	for _, c := range []struct {
		bf float64
		w  int
	}{{-0.1, 1}, {1.1, 1}, {0.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMetricAware(%v,%d) did not panic", c.bf, c.w)
				}
			}()
			NewMetricAware(c.bf, c.w)
		}()
	}
	s := NewMetricAware(0.5, 4)
	if bf, w := s.Tunables(); bf != 0.5 || w != 4 {
		t.Errorf("Tunables = %v,%d", bf, w)
	}
	if s.Name() != "metric-aware(bf=0.5,w=4)" {
		t.Errorf("Name = %q", s.Name())
	}
}

// The TestNextPermutation family pins invariant.NextPermutation, the
// enumerator behind both exhaustive window oracles this package's tests
// lean on (VerifyWindow and exhaustiveBestPermutation).
func TestNextPermutation(t *testing.T) {
	p := []int{0, 1, 2}
	var seen [][]int
	seen = append(seen, append([]int(nil), p...))
	for invariant.NextPermutation(p) {
		seen = append(seen, append([]int(nil), p...))
	}
	want := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("permutations: %v", seen)
	}
}

// refPermutations generates all permutations of 0..n-1 recursively and
// returns them sorted lexicographically — an independent reference for
// the iterative generator.
func refPermutations(n int) [][]int {
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i, v := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(prefix, v), next)
		}
	}
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	rec(nil, elems)
	sort.Slice(out, func(a, b int) bool {
		for k := range out[a] {
			if out[a][k] != out[b][k] {
				return out[a][k] < out[b][k]
			}
		}
		return false
	})
	return out
}

func TestNextPermutationExhaustive(t *testing.T) {
	for n := 1; n <= 4; n++ {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		var seen [][]int
		seen = append(seen, append([]int(nil), p...))
		for invariant.NextPermutation(p) {
			seen = append(seen, append([]int(nil), p...))
		}
		if want := refPermutations(n); !reflect.DeepEqual(seen, want) {
			t.Errorf("n=%d: generated %v, want %v", n, seen, want)
		}
	}
}

func TestNextPermutationEdgeCases(t *testing.T) {
	// The last (descending) permutation has no successor; the slice must
	// be left untouched so callers can still read the final ordering.
	last := []int{3, 2, 1, 0}
	if invariant.NextPermutation(last) {
		t.Error("advanced past the last permutation")
	}
	if !reflect.DeepEqual(last, []int{3, 2, 1, 0}) {
		t.Errorf("last permutation mutated: %v", last)
	}

	single := []int{0}
	if invariant.NextPermutation(single) {
		t.Error("single-element slice reported a successor")
	}
	if invariant.NextPermutation(nil) {
		t.Error("empty slice reported a successor")
	}
}

func TestNextPermutationCountProperty(t *testing.T) {
	fact := []int{1, 1, 2, 6, 24, 120}
	for n := 1; n <= 5; n++ {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		count := 1
		for invariant.NextPermutation(p) {
			count++
		}
		if count != fact[n] {
			t.Errorf("n=%d: %d permutations, want %d", n, count, fact[n])
		}
	}
}

// The paper's Figure-2 scenario: scheduling one-by-one drains the
// machine for a big reserved job while a smaller lower-priority job
// could have used the idle nodes; a window of 2 reorders them and both
// starts the small job now and shortens the makespan.
func TestWindowBeatsOneByOne(t *testing.T) {
	mk := func() (*schedtest.Env, *job.Job, *job.Job) {
		m := machine.NewFlat(10)
		if _, ok := m.TryStart(99, 5, 0, 100); !ok { // running until t=100
			t.Fatal("setup failed")
		}
		jA := schedtest.J(1, 0, 10, 100, 90) // full machine, blocked
		jB := schedtest.J(2, 1, 5, 150, 140) // would delay jA's reservation
		return schedtest.New(m, jA, jB), jA, jB
	}

	// W=1 (EASY behaviour): jA reserved at 100; jB must not delay it.
	env1, _, _ := mk()
	NewMetricAware(1, 1).Schedule(env1)
	if len(env1.Started) != 0 {
		t.Errorf("W=1 started %v, want none", env1.StartedIDs())
	}

	// W=2: permutation (jB, jA) has makespan 250 vs identity's 350, so
	// jB starts immediately and jA is reserved at 150.
	env2, _, jB := mk()
	NewMetricAware(1, 2).Schedule(env2)
	if !reflect.DeepEqual(env2.StartedIDs(), []int{2}) {
		t.Errorf("W=2 started %v, want [2]", env2.StartedIDs())
	}
	if jB.Start != 0 {
		t.Errorf("jB started at %v", jB.Start)
	}
}

// With BF=1 and W=1 the scheduler must behave exactly like EASY — the
// paper's reduction claim — on arbitrary machine states and queues, on
// both machine models. The reference is Reserving at depth 1, which
// re-derives the reservation every pass; sched.NewEASY runs the held
// pass MetricAware runs, so it is a second leg, not the reference.
func TestBF1W1EquivalentToEASYProperty(t *testing.T) {
	f := func(running []uint16, waiting []uint32, flat bool) bool {
		if len(running) > 12 {
			running = running[:12]
		}
		if len(waiting) > 25 {
			waiting = waiting[:25]
		}
		started := func(s sched.Scheduler) []int {
			var m machine.Machine = machine.NewPartition(8, 32)
			if flat {
				m = machine.NewFlat(256)
			}
			for i, spec := range running {
				// Walltimes must exceed the pass instant (t=100): the
				// engine kills jobs at their limit, so a
				// run-past-walltime state is unreachable and plans may
				// legitimately disagree with the machine there.
				m.TryStart(1000+i, 1+int(spec)%256, 0, units.Duration(150+spec%2000))
			}
			var q []*job.Job
			for i, spec := range waiting {
				wall := units.Duration(10 + spec%3000)
				q = append(q, schedtest.J(i+1, units.Time(spec%50), 1+int(spec)%256, wall, wall/2+1))
			}
			env := schedtest.New(m, q...)
			env.T = 100
			s.Schedule(env)
			ids := env.StartedIDs()
			sort.Ints(ids)
			return ids
		}
		ref := started(&sched.Reserving{Order: sched.SubmitOrder, Depth: 1})
		return reflect.DeepEqual(ref, started(sched.NewEASY())) &&
			reflect.DeepEqual(ref, started(NewMetricAware(1, 1)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Conservative mode must never start a job whose execution would delay
// any blocked job's reservation, including those beyond the first.
func TestConservativeWindowMode(t *testing.T) {
	m := machine.NewFlat(100)
	m.TryStart(99, 60, 0, 100)
	head := schedtest.J(1, 0, 80, 200, 150)   // reserved at 100
	second := schedtest.J(2, 1, 90, 200, 150) // reserved at 300
	bf := schedtest.J(3, 2, 20, 350, 300)     // delays second's reservation
	env := schedtest.New(m, head, second, bf)
	s := NewMetricAware(1, 1)
	s.Conservative = true
	s.Schedule(env)
	if len(env.Started) != 0 {
		t.Errorf("conservative started %v, want none", env.StartedIDs())
	}
	if s.Name() != "metric-aware(bf=1,w=1,conservative)" {
		t.Errorf("Name = %q", s.Name())
	}
}

// A window larger than the queue must not panic and must degrade
// gracefully.
func TestWindowLargerThanQueue(t *testing.T) {
	m := machine.NewFlat(100)
	env := schedtest.New(m,
		schedtest.J(1, 0, 30, 100, 50),
		schedtest.J(2, 1, 30, 100, 50),
	)
	NewMetricAware(0.5, 5).Schedule(env)
	got := env.StartedIDs()
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("started %v, want both", got)
	}
}

// Oversized windows skip the permutation search but still schedule.
func TestWindowBeyondPermCap(t *testing.T) {
	m := machine.NewFlat(1000)
	var queue []*job.Job
	for i := 1; i <= 10; i++ {
		queue = append(queue, schedtest.J(i, units.Time(i), 50, 100, 50))
	}
	env := schedtest.New(m, queue...)
	NewMetricAware(1, 10).Schedule(env)
	if len(env.Started) != 10 {
		t.Errorf("started %d of 10", len(env.Started))
	}
}

func TestScheduleEmptyQueue(t *testing.T) {
	env := schedtest.New(machine.NewFlat(10))
	NewMetricAware(0.5, 3).Schedule(env) // must not panic
}

// Whatever the configuration, a scheduling pass must never overcommit
// the machine or start a job twice.
func TestScheduleSafetyProperty(t *testing.T) {
	f := func(waiting []uint32, bfRaw uint8, wRaw uint8) bool {
		if len(waiting) > 30 {
			waiting = waiting[:30]
		}
		m := machine.NewPartition(8, 32)
		var q []*job.Job
		for i, spec := range waiting {
			wall := units.Duration(10 + spec%2000)
			q = append(q, schedtest.J(i+1, units.Time(spec%100), 1+int(spec)%300, wall, wall/2+1))
		}
		env := schedtest.New(m, q...)
		env.T = 50
		bf := float64(bfRaw%5) * 0.25
		w := 1 + int(wRaw)%5
		NewMetricAware(bf, w).Schedule(env)
		if m.BusyNodes() > m.TotalNodes() {
			return false
		}
		seen := map[int]bool{}
		for _, j := range env.Started {
			if seen[j.ID] {
				return false
			}
			seen[j.ID] = true
			if j.State != job.Running {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// A pass holding the protected reservation, with a queued job that fits
// the idle node count but finds no free aligned partition, skips the
// ranking: it starts nothing, keeps the reservation, and reports
// Untuned, which the what-if lookahead relies on to share the pass
// between candidates. The pass that granted the reservation read the
// ranking and does not. EASY runs the same pass and makes the same
// claims.
func TestHeldReservationNoFitPassIsUntuned(t *testing.T) {
	for _, s := range []heldPolicy{NewMetricAware(0.5, 2), sched.NewEASY()} {
		t.Run(s.Name(), func(t *testing.T) { heldNoFitPassIsUntuned(t, s) })
	}
}

func heldNoFitPassIsUntuned(t *testing.T, s heldPolicy) {
	m := machine.NewPartition(8, 32)
	var allocs []machine.Alloc
	for id := 101; id <= 108; id++ {
		a, ok := m.TryStart(id, 32, 0, 1000)
		if !ok {
			t.Fatalf("filler %d did not start", id)
		}
		allocs = append(allocs, a)
	}
	for i := 1; i < len(allocs); i += 2 {
		m.Release(allocs[i], 0) // free every other midplane: 128 idle nodes, no aligned pair
	}
	big := schedtest.J(1, 0, 256, 500, 500)
	env := schedtest.New(m, big)
	env.T = 10
	s.Schedule(env)
	if id, _, held := s.ProtectedReservation(); !held || id != big.ID {
		t.Fatalf("first pass reservation = (%d, %v), want job %d held", id, held, big.ID)
	}
	if s.LastPass().Untuned {
		t.Error("the pass that granted the reservation reports Untuned")
	}

	pair := schedtest.J(2, 5, 64, 50, 50)
	env.Waiting = append(env.Waiting, pair)
	env.T = 20
	if pair.Nodes > m.IdleNodes() {
		t.Fatalf("setup: %d-node job exceeds the %d idle nodes", pair.Nodes, m.IdleNodes())
	}
	s.Schedule(env)
	if len(env.Started) != 0 {
		t.Fatalf("started %v, want none", env.StartedIDs())
	}
	rep := s.LastPass()
	if !rep.Untuned || !rep.Quiescent || rep.Mutated {
		t.Errorf("report %+v, want Untuned and Quiescent, not Mutated", rep)
	}
	if id, _, held := s.ProtectedReservation(); !held || id != big.ID {
		t.Errorf("reservation after the no-op pass = (%d, %v), want job %d held", id, held, big.ID)
	}
}

// Conservative passes never claim Untuned, whichever path they take:
// the empty queue, the no-fit fast path, or a full pass — the
// metric-aware policy's and conservative backfilling's alike.
func TestConservativeNeverUntuned(t *testing.T) {
	ma := NewMetricAware(0.5, 2)
	ma.Conservative = true
	for _, s := range []heldPolicy{ma, sched.NewConservative()} {
		s.Schedule(schedtest.New(machine.NewFlat(100)))
		if s.LastPass().Untuned {
			t.Errorf("%s: empty-queue conservative pass reports Untuned", s.Name())
		}
	}
	f := func(waiting []uint32, bfRaw, wRaw uint8, fcfs bool) bool {
		if len(waiting) > 30 {
			waiting = waiting[:30]
		}
		m := machine.NewPartition(8, 32)
		var q []*job.Job
		for i, spec := range waiting {
			wall := units.Duration(10 + spec%2000)
			q = append(q, schedtest.J(i+1, units.Time(spec%100), 1+int(spec)%300, wall, wall/2+1))
		}
		env := schedtest.New(m, q...)
		env.T = 50
		ma := NewMetricAware(float64(bfRaw%5)*0.25, 1+int(wRaw)%5)
		ma.Conservative = true
		var s heldPolicy = ma
		if fcfs {
			s = sched.NewConservative()
		}
		for pass := 0; pass < 3; pass++ { // later passes meet a fuller machine
			s.Schedule(env)
			if s.LastPass().Untuned {
				return false
			}
			env.T += 10
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
