package machine

import (
	"math/rand"
	"slices"
	"testing"

	"amjs/internal/units"
)

// TestPlanStartNowMatchesMachine checks the contract that lets every
// scheduler start jobs through a plan: on a plan whose only commitments
// are starts at now (a pass that reserves nothing), EarliestStart
// returns now with a hint TryStartAt accepts exactly when the machine's
// CanStartNow holds, and that hint is the placement the machine's own
// first-fit TryStart picks on a clone. Each trial replays a run of
// random requests the way such a pass does: probe, start at the hint
// if it is now, commit the start into the plan.
//
// On Intrepid, running jobs sit on blocks either side of the 63/64 word
// boundary and one in four is overdue: machine-busy but past its
// walltime estimate, so free in the profile. The plan must still answer
// now only with a machine-idle block. The flat pool has overdue jobs
// too; it has no placement identity, so only the yes/no answer is
// compared there. The torus runs without overdue jobs: its profile
// orders an overdue cuboid with the idle ones, and the engine never
// holds an allocation past its walltime at a pass, because a job's end
// event fires no later than its walltime and completions run first.
func TestPlanStartNowMatchesMachine(t *testing.T) {
	const now = units.Time(100)
	anySize := func(r *rand.Rand, m Machine) int { return 1 + r.Intn(m.TotalNodes()) }
	for _, c := range []struct {
		name string
		m    func(r *rand.Rand) Machine
		size func(r *rand.Rand, m Machine) int
	}{
		{"flat", func(r *rand.Rand) Machine {
			m := NewFlat(256)
			for i := r.Intn(6); i > 0; i-- {
				wall := units.Duration(1 + r.Intn(60))
				at := now
				if r.Intn(4) == 0 {
					at = now - units.Time(wall) - units.Time(r.Intn(3)) // overdue
				}
				m.TryStart(i, 1+r.Intn(120), at, wall)
			}
			return m
		}, anySize},
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
		}},
		{"torus-3x2x2", func(r *rand.Rand) Machine {
			m := NewTorus(3, 2, 2, 4)
			for i := r.Intn(5); i > 0; i-- {
				m.TryStart(i, 1+r.Intn(m.TotalNodes()), now, units.Duration(1+r.Intn(60)))
			}
			return m
		}, anySize},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			starts := 0
			for trial := range 300 {
				m := c.m(r)
				pl := m.Plan(now)
				for id := 100; id < 112; id++ {
					nodes, wall := c.size(r, m), units.Duration(1+r.Intn(60))
					ts, hint := pl.EarliestStart(nodes, wall)
					can := m.CanStartNow(nodes)
					clone := m.Clone()
					ca, cok := clone.TryStart(id, nodes, now, wall)
					if cok != can {
						t.Fatalf("trial %d: TryStart %v but CanStartNow %v", trial, cok, can)
					}
					var a Alloc
					ok := false
					if ts == now {
						a, ok = m.TryStartAt(id, nodes, now, wall, hint)
					}
					if ok != can {
						t.Fatalf("trial %d: %d nodes: plan answers (%v, %d), start %v, CanStartNow %v",
							trial, nodes, ts, hint, ok, can)
					}
					if !ok {
						continue
					}
					starts++
					if fp, isFp := m.(Footprinter); isFp {
						got, _, _ := fp.AllocUnits(a)
						want, _, _ := clone.(Footprinter).AllocUnits(ca)
						if !slices.Equal(got, want) {
							t.Fatalf("trial %d: %d nodes: plan hint %d places on %v, TryStart on %v",
								trial, nodes, hint, got, want)
						}
					}
					pl.Commit(nodes, now, wall, hint)
				}
			}
			if starts == 0 {
				t.Fatal("no request started: the trials test nothing")
			}
		})
	}
}
