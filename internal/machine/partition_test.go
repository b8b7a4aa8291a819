package machine

import (
	"testing"

	"amjs/internal/units"
)

// test machine: 8 midplanes x 64 nodes = 512 nodes.
func small() *Partition { return NewPartition(8, 64) }

func TestBlockMidplanes(t *testing.T) {
	p := small()
	cases := []struct {
		nodes, want int
	}{
		{1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 4}, {256, 4},
		{257, 8}, {512, 8}, {513, -1}, {0, -1}, {-3, -1},
	}
	for _, c := range cases {
		if got := p.BlockMidplanes(c.nodes); got != c.want {
			t.Errorf("BlockMidplanes(%d) = %d, want %d", c.nodes, got, c.want)
		}
	}
	if got := p.PartitionNodes(65); got != 128 {
		t.Errorf("PartitionNodes(65) = %d, want 128", got)
	}
	if got := p.PartitionNodes(9999); got != -1 {
		t.Errorf("PartitionNodes(9999) = %d, want -1", got)
	}
}

func TestBlockMidplanesNonPow2Machine(t *testing.T) {
	// Intrepid: 80 midplanes. 64 is the largest power-of-two block; any
	// request over 64 midplanes gets the full 80-midplane system.
	p := NewIntrepid()
	if got := p.BlockMidplanes(32768); got != 64 {
		t.Errorf("BlockMidplanes(32768) = %d, want 64", got)
	}
	if got := p.BlockMidplanes(32769); got != 80 {
		t.Errorf("BlockMidplanes(32769) = %d, want 80", got)
	}
	if got := p.BlockMidplanes(40960); got != 80 {
		t.Errorf("BlockMidplanes(40960) = %d, want 80", got)
	}
	if p.CanFitEver(40961) {
		t.Error("CanFitEver(40961) true")
	}
	if p.TotalNodes() != 40960 {
		t.Errorf("Intrepid total = %d", p.TotalNodes())
	}
}

func TestPartitionAllocationAlignment(t *testing.T) {
	p := small()
	// Fill midplane 0 with a 1-midplane job.
	a1, ok := p.TryStart(1, 64, 0, 100)
	if !ok {
		t.Fatal("first start failed")
	}
	// A 2-midplane job must go to [2,4), not [1,3) (alignment).
	_, ok = p.TryStart(2, 128, 0, 100)
	if !ok {
		t.Fatal("second start failed")
	}
	al := p.allocs[p.nextID]
	if al.start != 2 || al.width != 2 {
		t.Errorf("2-midplane job placed at %d width %d, want start 2", al.start, al.width)
	}
	// 4-midplane job: aligned blocks are [0,4) and [4,8); [0,4) is busy.
	_, ok = p.TryStart(3, 256, 0, 100)
	if !ok {
		t.Fatal("third start failed")
	}
	al = p.allocs[p.nextID]
	if al.start != 4 {
		t.Errorf("4-midplane job at %d, want 4", al.start)
	}
	// Machine now: busy 0,2,3,4,5,6,7 → idle = midplane 1 only.
	if p.IdleNodes() != 64 {
		t.Errorf("idle = %d, want 64", p.IdleNodes())
	}
	// Fragmentation: 64 idle nodes exist but only a 1-midplane job fits.
	if !p.CanStartNow(64) || p.CanStartNow(65) {
		t.Error("fragmented CanStartNow wrong")
	}
	p.Release(a1, 50)
	if p.IdleNodes() != 128 {
		t.Errorf("idle after release = %d", p.IdleNodes())
	}
	// Midplanes 0 and 1 are free but NOT an aligned 2-block pair? They are:
	// [0,2) is aligned. So a 128-node job fits now.
	if !p.CanStartNow(128) {
		t.Error("aligned pair not usable")
	}
}

func TestPartitionExternalFragmentation(t *testing.T) {
	p := small()
	// Occupy midplanes 1 (via hint) and leave 0 free: then [0,2) blocked,
	// [2,4) free.
	if _, ok := p.TryStartAt(1, 64, 0, 100, 1); !ok {
		t.Fatal("hinted start failed")
	}
	if _, ok := p.TryStartAt(2, 64, 0, 100, 3); !ok {
		t.Fatal("hinted start failed")
	}
	if _, ok := p.TryStartAt(3, 64, 0, 100, 5); !ok {
		t.Fatal("hinted start failed")
	}
	if _, ok := p.TryStartAt(4, 64, 0, 100, 7); !ok {
		t.Fatal("hinted start failed")
	}
	// 4 idle midplanes (0,2,4,6) = 256 idle nodes, but no aligned free
	// 2-midplane block exists: external fragmentation.
	if p.IdleNodes() != 256 {
		t.Fatalf("idle = %d", p.IdleNodes())
	}
	if p.CanStartNow(128) {
		t.Error("fragmented machine started a 2-midplane job")
	}
	if !p.CanStartNow(64) {
		t.Error("1-midplane job should fit")
	}
}

func TestTryStartAtValidation(t *testing.T) {
	p := small()
	if _, ok := p.TryStartAt(1, 128, 0, 10, 1); ok {
		t.Error("misaligned hint accepted")
	}
	if _, ok := p.TryStartAt(1, 128, 0, 10, 8); ok {
		t.Error("out-of-range hint accepted")
	}
	if _, ok := p.TryStartAt(1, 9999, 0, 10, 0); ok {
		t.Error("oversized request accepted")
	}
	p.TryStartAt(1, 64, 0, 10, 0)
	if _, ok := p.TryStartAt(2, 64, 0, 10, 0); ok {
		t.Error("busy block accepted")
	}
}

func TestPartitionPlanEarliestStart(t *testing.T) {
	p := small()
	p.TryStartAt(1, 256, 0, 100, 0) // [0,4) until 100
	p.TryStartAt(2, 128, 0, 50, 4)  // [4,6) until 50
	pl := p.Plan(0)

	// 2-midplane job: [6,8) free now.
	ts, hint := pl.EarliestStart(128, 1000)
	if ts != 0 || hint != 6 {
		t.Errorf("128 nodes: got (%v,%d), want (0,6)", ts, hint)
	}
	// 4-midplane job: [4,8) becomes free at 50 (since [4,6) busy till 50).
	ts, hint = pl.EarliestStart(256, 1000)
	if ts != 50 || hint != 4 {
		t.Errorf("256 nodes: got (%v,%d), want (50,4)", ts, hint)
	}
	// Full machine at 100.
	ts, hint = pl.EarliestStart(512, 1000)
	if ts != 100 || hint != 0 {
		t.Errorf("512 nodes: got (%v,%d), want (100,0)", ts, hint)
	}
	// Impossible.
	if ts, hint = pl.EarliestStart(513, 10); ts != units.Forever || hint != -1 {
		t.Errorf("513 nodes: got (%v,%d)", ts, hint)
	}
}

// FreeNow on Intrepid, whose 80 midplanes are not a power of two: an
// idle machine (or one whose only job is overdue) answers the whole
// machine for every width, the full system included, although only 64
// midplanes lie in aligned 32- or 64-blocks. Once a midplane is held at
// now, the full system answers 0 and the other widths count their free
// aligned blocks; a commitment that starts later holds nothing at now.
func TestPartitionFreeNow(t *testing.T) {
	const mp = 512
	p := NewIntrepid()
	check := func(pl Plan, want map[int]int) {
		t.Helper()
		for width, free := range want {
			if got := pl.FreeNow(width*mp - 1); got != free*mp {
				t.Errorf("FreeNow(width %d) = %d midplanes, want %d", width, got/mp, free)
			}
		}
	}
	all := map[int]int{1: 80, 16: 80, 32: 80, 64: 80, 80: 80}
	check(p.Plan(0), all)

	a, _ := p.TryStartAt(1, mp, 0, 100, 0) // midplane 0 until 100
	check(p.Plan(100), all)                // overdue: free in the profile
	pl := p.Plan(0)
	check(pl, map[int]int{1: 79, 2: 78, 16: 64, 32: 32, 64: 0, 80: 0})

	pl.Commit(16*mp, 0, 50, 64) // midplanes 64..79 over [0, 50)
	pl.Commit(8*mp, 10, 50, 32) // midplanes 32..39 from 10: not at now
	check(pl, map[int]int{1: 63, 8: 56, 16: 48, 32: 32, 64: 0, 80: 0})
	p.Release(a, 0)
	check(p.Plan(0), all)
}

func TestPartitionPlanCommitProtectsReservation(t *testing.T) {
	p := small()
	p.TryStartAt(1, 256, 0, 100, 0) // [0,4) until 100
	pl := p.Plan(0)
	// Reserve the full machine at t=100.
	ts, hint := pl.EarliestStart(512, 500)
	if ts != 100 {
		t.Fatalf("full-machine reservation at %v", ts)
	}
	pl.Commit(512, ts, 500, hint)
	// Backfill candidate on free [4,8): 100s job ends exactly at the
	// reservation — legal now.
	ts, hint = pl.EarliestStart(256, 100)
	if ts != 0 || hint != 4 {
		t.Errorf("fitting backfill: got (%v,%d), want (0,4)", ts, hint)
	}
	// 101s job would delay the reservation: must wait until it ends (600).
	ts, _ = pl.EarliestStart(256, 101)
	if ts != 600 {
		t.Errorf("overrunning backfill: got %v, want 600", ts)
	}
}

func TestPartitionPlanCommitPanics(t *testing.T) {
	p := small()
	p.TryStartAt(1, 64, 0, 100, 0)
	pl := p.Plan(0)
	for name, f := range map[string]func(){
		"overlap":    func() { pl.Commit(64, 0, 10, 0) },
		"misaligned": func() { pl.Commit(128, 0, 10, 1) },
		"past":       func() { pl.Commit(64, -5, 10, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s commit did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPartitionCloneIndependent(t *testing.T) {
	p := small()
	a, _ := p.TryStart(1, 256, 0, 100)
	c := p.Clone().(*Partition)
	c.Release(a, 10)
	if p.IdleNodes() != 256 {
		t.Error("clone release affected original")
	}
	if c.IdleNodes() != 512 {
		t.Error("clone not drained")
	}
}

func TestPartitionPlanCloneIndependent(t *testing.T) {
	p := small()
	pl := p.Plan(0)
	c := pl.Clone()
	c.Commit(512, 0, 100, 0)
	if ts, _ := pl.EarliestStart(512, 10); ts != 0 {
		t.Error("plan clone commit leaked")
	}
}

func TestPartitionUsedVsBusy(t *testing.T) {
	p := small()
	p.TryStart(1, 65, 0, 100) // occupies 2 midplanes = 128 nodes
	if p.BusyNodes() != 128 {
		t.Errorf("BusyNodes = %d, want 128", p.BusyNodes())
	}
	if p.UsedNodes() != 65 {
		t.Errorf("UsedNodes = %d, want 65", p.UsedNodes())
	}
}

func TestPartitionReleaseUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	small().Release(Alloc(7), 0)
}
