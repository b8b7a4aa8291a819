package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"amjs/internal/invariant"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// exhaustiveBestPermutation is the seed implementation of the window
// search — a flat next-permutation loop that clones the plan and
// re-places every job per candidate — kept in the test tree as the
// oracle the branch-and-bound search is cross-checked against.
func exhaustiveBestPermutation(plan machine.Plan, window []*job.Job, now units.Time, utilFirst bool) []int {
	n := len(window)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if n <= 1 || n > maxPermWindow {
		return identity
	}

	allNow := true
	probe := plan.Clone()
	for _, j := range window {
		ts, hint := probe.EarliestStart(j.Nodes, j.Walltime)
		if ts != now {
			allNow = false
			break
		}
		probe.Commit(j.Nodes, ts, j.Walltime, hint)
	}
	if allNow {
		return identity
	}

	best := append([]int(nil), identity...)
	bestSpan, bestNodes := evalPermutationClone(plan, window, identity, now)

	better := func(span units.Time, nodes int) bool {
		if utilFirst {
			return nodes > bestNodes || (nodes == bestNodes && span < bestSpan)
		}
		return span < bestSpan || (span == bestSpan && nodes > bestNodes)
	}
	perm := append([]int(nil), identity...)
	for invariant.NextPermutation(perm) {
		span, nodes := evalPermutationClone(plan, window, perm, now)
		if better(span, nodes) {
			bestSpan, bestNodes = span, nodes
			copy(best, perm)
		}
	}
	return best
}

// evalPermutationClone greedily places the window's jobs in the given
// order on a clone of plan, returning the schedule's makespan and the
// node count put to work immediately (the seed's evalPermutation).
func evalPermutationClone(plan machine.Plan, window []*job.Job, perm []int, now units.Time) (units.Time, int) {
	p := plan.Clone()
	makespan := now
	nodesNow := 0
	for _, idx := range perm {
		j := window[idx]
		ts, hint := p.EarliestStart(j.Nodes, j.Walltime)
		if ts == units.Forever {
			continue
		}
		p.Commit(j.Nodes, ts, j.Walltime, hint)
		if end := ts.Add(j.Walltime); end > makespan {
			makespan = end
		}
		if ts == now {
			nodesNow += j.Nodes
		}
	}
	return makespan, nodesNow
}

// oracleMachine builds a randomized machine state: a mix of model
// types, partially loaded with running jobs.
func oracleMachine(r *rand.Rand) machine.Machine {
	var m machine.Machine
	switch r.Intn(3) {
	case 0:
		m = machine.NewFlat(256)
	case 1:
		m = machine.NewPartition(8, 32)
	default:
		m = machine.NewTorus(2, 2, 2, 32)
	}
	for i := 0; i < r.Intn(10); i++ {
		nodes := 1 + r.Intn(200)
		wall := units.Duration(50 + r.Intn(4000))
		m.TryStart(1000+i, nodes, 0, wall)
	}
	return m
}

// oracleWindow builds a randomized window of n jobs. Occasionally a job
// is oversized (can never fit) to exercise the Forever path.
func oracleWindow(r *rand.Rand, n int) []*job.Job {
	window := make([]*job.Job, n)
	for i := range window {
		nodes := 1 + r.Intn(220)
		if r.Intn(20) == 0 {
			nodes = 10_000 // oversized: EarliestStart returns Forever
		}
		window[i] = &job.Job{
			ID:       i + 1,
			User:     "u",
			Nodes:    nodes,
			Walltime: units.Duration(10 + r.Intn(3000)),
			Runtime:  units.Duration(5 + r.Intn(2000)),
			State:    job.Queued,
		}
	}
	return window
}

// oracleIntrepid builds a randomized state of the 80x512 Intrepid
// model: running jobs on random aligned blocks, one in four overdue at
// any now >= 0 (machine-busy but free in the profile).
func oracleIntrepid(r *rand.Rand) machine.Machine {
	m := machine.NewIntrepid()
	for i := 0; i < r.Intn(12); i++ {
		width := 1 << r.Intn(6)
		wall := units.Duration(50 + r.Intn(4000))
		start := units.Time(0)
		if r.Intn(4) == 0 {
			start = -units.Time(wall) - 1
		}
		m.TryStartAt(1000+i, width*512, start, wall, r.Intn(80/width)*width)
	}
	return m
}

// oracleIntrepidWindow builds a randomized Intrepid window of n jobs
// over every partition width, the full-system partition included.
func oracleIntrepidWindow(r *rand.Rand, n int) []*job.Job {
	widths := [...]int{1, 2, 4, 8, 16, 32, 64, 80}
	window := make([]*job.Job, n)
	for i := range window {
		window[i] = &job.Job{
			ID:       i + 1,
			User:     "u",
			Nodes:    widths[r.Intn(len(widths))]*512 - r.Intn(256),
			Walltime: units.Duration(10 + r.Intn(3000)),
			Runtime:  units.Duration(5 + r.Intn(2000)),
			State:    job.Queued,
		}
	}
	return window
}

// twinWindow turns a window generator into a twin-heavy one: the n
// jobs take their (Nodes, Walltime) shapes from two or three drawn from
// base, so most jobs share a shape with another.
func twinWindow(base func(*rand.Rand, int) []*job.Job) func(*rand.Rand, int) []*job.Job {
	return func(r *rand.Rand, n int) []*job.Job {
		shapes := base(r, 2+r.Intn(2))
		window := base(r, n)
		for _, j := range window {
			s := shapes[r.Intn(len(shapes))]
			j.Nodes, j.Walltime = s.Nodes, s.Walltime
		}
		return window
	}
}

// oracleRow is one family of random machine states and windows the
// window-search tests draw from, with its seed and rounds per mode.
type oracleRow struct {
	name   string
	seed   int64
	rounds int
	m      func(*rand.Rand) machine.Machine
	window func(*rand.Rand, int) []*job.Job
}

// oracleRows are the mixed small models, and Intrepid at full size,
// each also with twin-heavy windows.
var oracleRows = []oracleRow{
	{"mixed", 7, 1200, oracleMachine, oracleWindow},
	{"intrepid-80x512", 80, 400, oracleIntrepid, oracleIntrepidWindow},
	{"mixed-twins", 11, 600, oracleMachine, twinWindow(oracleWindow)},
	{"intrepid-twins", 81, 400, oracleIntrepid, twinWindow(oracleIntrepidWindow)},
}

// The branch-and-bound search must select exactly the permutation the
// seed's exhaustive loop selects — including all tie-breaks — on
// randomized machine states and windows of 2..maxPermWindow jobs, under
// both objective modes, and must leave the shared plan unchanged. One
// scheduler serves every width of a mode, so the search scratch is
// resized up and down between rounds as the adaptive tuner would.
func TestBestPermutationMatchesExhaustiveOracle(t *testing.T) {
	for _, row := range oracleRows {
		t.Run(row.name, func(t *testing.T) {
			if mismatch := oracleMismatch(t, row, nil); mismatch != "" {
				t.Fatal(mismatch)
			}
		})
	}
}

// oracleMismatch runs the oracle comparison of one row and describes
// the first window on which the search disagrees with the exhaustive
// loop ("" when none does). wrap, when non-nil, wraps the plan the
// search sees; the oracle always sees the plan itself.
func oracleMismatch(t *testing.T, row oracleRow, wrap func(machine.Plan) machine.Plan) string {
	return oracleMismatchOf(t, row, func(s *MetricAware, plan machine.Plan, window []*job.Job, now units.Time) []int {
		if wrap != nil {
			plan = wrap(plan)
		}
		return s.bestPermutation(plan, window, now)
	})
}

// windowSearch is a window search under test: bestPermutation, or a
// deliberately broken variant of it.
type windowSearch func(s *MetricAware, plan machine.Plan, window []*job.Job, now units.Time) []int

// oracleMismatchOf is oracleMismatch for any window search.
func oracleMismatchOf(t *testing.T, row oracleRow, search windowSearch) string {
	r := rand.New(rand.NewSource(row.seed))
	for _, utilFirst := range []bool{false, true} {
		s := NewMetricAware(0.5, maxPermWindow)
		s.UtilizationFirst = utilFirst
		for i := 0; i < row.rounds; i++ {
			n := oracleWidth(i)
			m := row.m(r)
			window := row.window(r, n)
			now := units.Time(r.Intn(40))
			plan := m.Plan(now)
			want := exhaustiveBestPermutation(plan, window, now, utilFirst)

			witness := plan.Clone()
			got, err := searchRecovering(s, search, plan, window, now)
			if err != nil {
				return fmt.Sprintf("utilFirst=%v round %d on %s: search failed: %v", utilFirst, i, m.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("utilFirst=%v round %d on %s: branch-and-bound picked %v, oracle %v (window %v)",
					utilFirst, i, m.Name(), got, want, describeWindow(window))
			}
			// The search speculates directly on the shared plan; every
			// commit must have been rewound.
			for _, j := range window {
				gt, gh := plan.EarliestStart(j.Nodes, j.Walltime)
				wt, wh := witness.EarliestStart(j.Nodes, j.Walltime)
				if gt != wt || gh != wh {
					t.Fatalf("utilFirst=%v round %d: plan mutated by search: probe (%d,%v) = (%v,%d), want (%v,%d)",
						utilFirst, i, j.Nodes, j.Walltime, gt, gh, wt, wh)
				}
			}
		}
	}
	return ""
}

// oracleWidth is the window size of round i: 2..5 in turn, and 6 or 7
// every wideEvery-th round, because the exhaustive loop costs 720–5,040
// orderings per window past the paper's W <= 5.
func oracleWidth(i int) int {
	const wideEvery = 40
	if i%wideEvery == 0 {
		return maxPermWindow - (i/wideEvery)%2
	}
	return 2 + i%4
}

// searchRecovering runs search with a panic (an infeasible commit from
// an unsound plan) returned as an error.
func searchRecovering(s *MetricAware, search windowSearch, plan machine.Plan, window []*job.Job, now units.Time) (perm []int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return search(s, plan, window, now), nil
}

func describeWindow(window []*job.Job) [][2]int64 {
	out := make([][2]int64, len(window))
	for i, j := range window {
		out[i] = [2]int64{int64(j.Nodes), int64(j.Walltime)}
	}
	return out
}
