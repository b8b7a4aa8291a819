package machine

import (
	"math/rand"
	"testing"

	"amjs/internal/units"
)

// TestPlanIndependentContract checks Plan.Independent on every plan
// model. On random plan states it probes two requests and compares the
// verdict with the brute-force rule: two placements interact exactly
// when their time windows share an instant and their unit sets (the
// partition's midplane range, the torus's decoded cells; a flat pool
// has no units, so all of it is shared) intersect. Whenever the verdict
// is independent, committing either placement must leave the other
// request's EarliestStart answer, hint included, unchanged.
//
// On Intrepid, running jobs sit on blocks either side of the 63/64 word
// boundary, one in four is overdue (machine-busy but free in the
// profile, so at now the partition prefers machine-idle blocks), and
// requests cover every width, the full-system partition included.
func TestPlanIndependentContract(t *testing.T) {
	const now = units.Time(100)
	partUnits := func(m Machine, p Placement) []int {
		w := m.(*Partition).BlockMidplanes(p.Nodes)
		mps := make([]int, w)
		for i := range mps {
			mps[i] = p.Hint + i
		}
		return mps
	}
	anySize := func(r *rand.Rand, m Machine) int { return 1 + r.Intn(m.TotalNodes()) }
	for _, c := range []struct {
		name  string
		m     func(r *rand.Rand) Machine
		size  func(r *rand.Rand, m Machine) int
		units func(m Machine, p Placement) []int // nil: no placement identity
	}{
		{"flat", func(r *rand.Rand) Machine {
			m := NewFlat(256)
			for i := r.Intn(6); i > 0; i-- {
				m.TryStart(i, 1+r.Intn(200), now, units.Duration(1+r.Intn(60)))
			}
			return m
		}, anySize, nil},
		{"partition-8x32", func(r *rand.Rand) Machine {
			m := NewPartition(8, 32)
			for i := r.Intn(6); i > 0; i-- {
				m.TryStart(i, 1+r.Intn(m.TotalNodes()), now, units.Duration(1+r.Intn(60)))
			}
			return m
		}, anySize, partUnits},
		{"intrepid-80x512", func(r *rand.Rand) Machine {
			m := NewIntrepid()
			for i := r.Intn(9); i > 0; i-- {
				width := 1 << r.Intn(6)
				start := r.Intn(80/width) * width
				if r.Intn(2) == 0 && width <= 16 {
					start = 64 - width + r.Intn(2)*width // at the word boundary
				}
				wall := units.Duration(1 + r.Intn(60))
				at := now
				if r.Intn(4) == 0 {
					at = now - units.Time(wall) - units.Time(r.Intn(3)) // overdue
				}
				m.TryStartAt(i, width*512, at, wall, start)
			}
			return m
		}, func(r *rand.Rand, m Machine) int {
			widths := [...]int{1, 2, 4, 8, 16, 32, 64, 80}
			return widths[r.Intn(len(widths))]*512 - r.Intn(256)
		}, partUnits},
		{"torus-3x2x2", func(r *rand.Rand) Machine {
			m := NewTorus(3, 2, 2, 4)
			for i := r.Intn(5); i > 0; i-- {
				m.TryStart(i, 1+r.Intn(m.TotalNodes()), now, units.Duration(1+r.Intn(60)))
			}
			return m
		}, anySize, func(m Machine, p Placement) []int { return m.(*Torus).decodeHint(p.Nodes, p.Hint) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(36))
			answer := func(plan Plan, nodes int, wall units.Duration) Placement {
				ts, hint := plan.EarliestStart(nodes, wall)
				return Placement{Nodes: nodes, Start: ts, Walltime: wall, Hint: hint}
			}
			unitDisjointOverlaps := 0
			for round := 0; round < 600; round++ {
				m := c.m(r)
				plan := m.Plan(now)
				for i := r.Intn(4); i > 0; i-- {
					p := answer(plan, c.size(r, m), units.Duration(1+r.Intn(40)))
					plan.Commit(p.Nodes, p.Start, p.Walltime, p.Hint)
				}
				a := answer(plan, c.size(r, m), units.Duration(1+r.Intn(40)))
				b := answer(plan, c.size(r, m), units.Duration(1+r.Intn(40)))

				timeOverlap := a.Start < b.End() && b.Start < a.End()
				shared := true
				if c.units != nil {
					shared = intersects(c.units(m, a), c.units(m, b))
				}
				got := plan.Independent(a, b)
				if got != plan.Independent(b, a) {
					t.Fatalf("round %d: Independent is not symmetric for %+v and %+v", round, a, b)
				}
				if want := !(timeOverlap && shared); got != want {
					t.Fatalf("round %d: Independent(%+v, %+v) = %v, brute force %v", round, a, b, got, want)
				}
				if !got {
					continue
				}
				if timeOverlap {
					unitDisjointOverlaps++
				}
				for _, pair := range [][2]Placement{{a, b}, {b, a}} {
					kept, placed := pair[0], pair[1]
					mark := plan.Save()
					plan.Commit(placed.Nodes, placed.Start, placed.Walltime, placed.Hint)
					if again := answer(plan, kept.Nodes, kept.Walltime); again != kept {
						t.Fatalf("round %d: committing independent %+v moved %+v to %+v", round, placed, kept, again)
					}
					plan.Restore(mark)
				}
			}
			if c.units != nil && unitDisjointOverlaps == 0 {
				t.Fatal("no unit-disjoint pair overlapped in time: the unit rule went untested")
			}
		})
	}
}

func intersects(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
