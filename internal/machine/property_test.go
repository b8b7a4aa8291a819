package machine

import (
	"testing"
	"testing/quick"

	"amjs/internal/units"
)

// TestPartitionInvariants drives a random allocate/release sequence and
// checks the buddy invariants after every step: conservation
// (busy+idle == total), alignment, disjointness, and agreement between
// the busy bitmap and the allocation table.
func TestPartitionInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewPartition(16, 32)
		var live []Alloc
		now := units.Time(0)
		for _, op := range ops {
			now++
			if op%3 == 0 && len(live) > 0 { // release
				i := int(op/3) % len(live)
				p.Release(live[i], now)
				live = append(live[:i], live[i+1:]...)
			} else { // allocate
				nodes := 1 + int(op)%p.TotalNodes()
				if a, ok := p.TryStart(int(op), nodes, now, 100); ok {
					live = append(live, a)
				}
			}
			if !partitionInvariantsHold(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func partitionInvariantsHold(p *Partition) bool {
	if p.BusyNodes()+p.IdleNodes() != p.TotalNodes() {
		return false
	}
	covered := make([]bool, p.midplanes)
	for _, al := range p.allocs {
		if al.width <= 0 || al.start%al.width != 0 || al.start+al.width > p.midplanes {
			return false // misaligned or out of range
		}
		if al.width != p.BlockMidplanes(al.nodes) {
			return false // wrong partition size for request
		}
		for i := al.start; i < al.start+al.width; i++ {
			if covered[i] {
				return false // overlapping allocations
			}
			covered[i] = true
		}
	}
	busyCount := 0
	for i := range covered {
		if p.midplaneBusy(i) != covered[i] {
			return false // bitset out of sync with allocation table
		}
		if covered[i] {
			busyCount++
			if p.rel[i] != p.allocEndAt(i) { // class 0: per-midplane estimates
				return false // release index out of sync
			}
		}
	}
	return busyCount*p.perMP == p.BusyNodes() // popcount cache in sync
}

// midplaneBusy reports whether midplane i is occupied (test helper).
func (p *Partition) midplaneBusy(i int) bool {
	return p.bits[i>>6]&(1<<uint(i&63)) != 0
}

// allocEndAt returns the expected-end estimate of the allocation
// covering midplane i (test helper; zero when none covers it).
func (p *Partition) allocEndAt(i int) units.Time {
	for _, al := range p.allocs {
		if i >= al.start && i < al.start+al.width {
			return al.expEnd
		}
	}
	return 0
}

// TestFlatPlanProperties checks on random machines that EarliestStart
// results are sane and committable, and that committing only ever pushes
// later requests back (monotonicity).
func TestFlatPlanProperties(t *testing.T) {
	f := func(jobs []uint16, reqNodes, reqWall uint16) bool {
		m := NewFlat(256)
		now := units.Time(1000)
		for i, spec := range jobs {
			nodes := 1 + int(spec)%256
			wall := units.Duration(1 + spec%5000)
			m.TryStart(i, nodes, now, wall)
		}
		p := m.Plan(now)
		nodes := 1 + int(reqNodes)%256
		wall := units.Duration(1 + reqWall%5000)

		ts, hint := p.EarliestStart(nodes, wall)
		if ts < now {
			return false // never before now
		}
		if ts == units.Forever {
			return false // always satisfiable: nodes <= total
		}
		p.Commit(nodes, ts, wall, hint) // must not panic
		ts2, _ := p.EarliestStart(nodes, wall)
		return ts2 >= ts // commitment cannot make things earlier
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPartitionPlanProperties mirrors the flat-plan properties on the
// partitioned machine, including hint validity.
func TestPartitionPlanProperties(t *testing.T) {
	f := func(jobs []uint16, reqNodes, reqWall uint16) bool {
		m := NewPartition(8, 32)
		now := units.Time(500)
		for i, spec := range jobs {
			nodes := 1 + int(spec)%m.TotalNodes()
			wall := units.Duration(1 + spec%3000)
			m.TryStart(i, nodes, now, wall)
		}
		p := m.Plan(now)
		nodes := 1 + int(reqNodes)%m.TotalNodes()
		wall := units.Duration(1 + reqWall%3000)

		ts, hint := p.EarliestStart(nodes, wall)
		if ts < now || ts == units.Forever {
			return false
		}
		width := m.BlockMidplanes(nodes)
		if hint < 0 || hint%width != 0 || hint+width > m.Midplanes() {
			return false // invalid hint
		}
		p.Commit(nodes, ts, wall, hint)
		ts2, _ := p.EarliestStart(nodes, wall)
		return ts2 >= ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPlanMatchesMachineNow verifies the load-bearing consistency rule:
// with no commitments, a plan reports an immediate start exactly when
// the machine can start the job now — and an immediate hint is always
// honored by TryStartAt.
func TestPlanMatchesMachineNow(t *testing.T) {
	f := func(jobs []uint16, reqNodes uint16) bool {
		for _, m := range []Machine{NewFlat(256), Machine(NewPartition(8, 32))} {
			now := units.Time(100)
			for i, spec := range jobs {
				nodes := 1 + int(spec)%m.TotalNodes()
				m.TryStart(i, nodes, now, units.Duration(1+spec%2000))
			}
			nodes := 1 + int(reqNodes)%m.TotalNodes()
			p := m.Plan(now)
			ts, hint := p.EarliestStart(nodes, 60)
			planNow := ts == now
			if planNow != m.CanStartNow(nodes) {
				return false
			}
			if planNow {
				if _, ok := m.TryStartAt(9999, nodes, now, 60, hint); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPow2Helpers(t *testing.T) {
	for _, c := range []struct{ in, next, prev int }{
		{1, 1, 1}, {2, 2, 2}, {3, 4, 2}, {5, 8, 4}, {64, 64, 64}, {80, 128, 64},
	} {
		if got := nextPow2(c.in); got != c.next {
			t.Errorf("nextPow2(%d) = %d, want %d", c.in, got, c.next)
		}
		if got := prevPow2(c.in); got != c.prev {
			t.Errorf("prevPow2(%d) = %d, want %d", c.in, got, c.prev)
		}
	}
}
