package machine

import "testing"

// TestCloneIntoIndependent checks the CloneInto contract on every
// model: a retired clone of the same geometry is reused, anything else
// gets a fresh clone, and a clone shares no state with its source —
// a start or release on either side never shows on the other, neither
// in the occupancy counts nor in a Plan built afterwards.
func TestCloneIntoIndependent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mk      func() Machine // the source's geometry
		other   Machine        // the same model, another geometry
		foreign Machine        // another model
		unit    int            // a request that holds one allocation unit
	}{
		{"flat", func() Machine { return NewFlat(20) }, NewFlat(24), NewPartition(4, 5), 5},
		{"partition", func() Machine { return NewPartition(8, 64) }, NewPartition(8, 32), NewFlat(512), 64},
		{"torus", func() Machine { return NewTorus(2, 2, 2, 64) }, NewTorus(2, 2, 1, 64), NewPartition(8, 64), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The source holds its third handle, a; the first two are
			// released, so a retired target that keeps its own handle
			// counter would hand a out again.
			src := tc.mk()
			var hs []Alloc
			for id := 1; id <= 3; id++ {
				h, ok := src.TryStart(id, tc.unit, 0, 100)
				if !ok {
					t.Fatal("source start failed")
				}
				hs = append(hs, h)
			}
			src.Release(hs[0], 0)
			src.Release(hs[1], 0)
			a := hs[2]
			total := src.TotalNodes()

			// checkIndependent starts a job on the clone and releases a
			// on the source, then checks that neither saw the other.
			checkIndependent := func(t *testing.T, c Machine) {
				t.Helper()
				if c.BusyNodes() != src.BusyNodes() || c.UsedNodes() != src.UsedNodes() || c.RunningCount() != src.RunningCount() {
					t.Fatalf("clone holds busy=%d used=%d running=%d, source busy=%d used=%d running=%d",
						c.BusyNodes(), c.UsedNodes(), c.RunningCount(), src.BusyNodes(), src.UsedNodes(), src.RunningCount())
				}
				if !probesEqual(t, src.Plan(0), c.Plan(0), total) {
					t.Fatal("clone's plan differs from its source's")
				}
				b, ok := c.TryStart(2, tc.unit, 0, 50)
				if !ok {
					t.Fatal("clone start failed")
				}
				src.Release(a, 10)
				if src.BusyNodes() != 0 || src.RunningCount() != 0 {
					t.Errorf("source saw the clone's start: busy=%d running=%d", src.BusyNodes(), src.RunningCount())
				}
				if at, _ := src.Plan(10).EarliestStart(total, 1); at != 10 {
					t.Errorf("source plan: full machine free at %v, want 10", at)
				}
				if c.BusyNodes() != 2*tc.unit || c.RunningCount() != 2 {
					t.Errorf("clone saw the source's release: busy=%d running=%d", c.BusyNodes(), c.RunningCount())
				}
				if at, _ := c.Plan(10).EarliestStart(total, 1); at != 100 {
					t.Errorf("clone plan: full machine free at %v, want 100", at)
				}
				c.Release(a, 10)
				c.Release(b, 10)
				if c.BusyNodes() != 0 || c.RunningCount() != 0 {
					t.Errorf("clone not drained: busy=%d running=%d", c.BusyNodes(), c.RunningCount())
				}
				// Restore the source for the next case.
				if a, ok = src.TryStart(3, tc.unit, 0, 100); !ok {
					t.Fatal("source restart failed")
				}
			}

			// Stale content the copy must overwrite, under more handles
			// than the source holds.
			dst := tc.mk()
			for id := 8; id <= 9; id++ {
				if _, ok := dst.TryStart(id, tc.unit, 0, 300); !ok {
					t.Fatal("target start failed")
				}
			}
			if src.CloneInto(dst) != dst {
				t.Fatal("CloneInto did not reuse a target of the same geometry")
			}
			checkIndependent(t, dst)

			for i, d := range []Machine{nil, tc.other, tc.foreign, src} {
				c := src.CloneInto(d)
				if c == d || c == src {
					t.Fatalf("target %d (%T): CloneInto reused it, want a fresh clone", i, d)
				}
				checkIndependent(t, c)
			}
		})
	}
}
