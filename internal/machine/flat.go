package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"amjs/internal/units"
)

// Flat is a malleable pool of identical nodes with no placement
// constraints: any request that fits the idle count can start.
//
// Allocations live in a slice: a handle is its slot's index + 1, and a
// released slot goes on a free list for the next start to reuse, so the
// table stays as long as the peak running count and Clone is a slice
// copy. Handles are therefore recycled; a released handle is invalid
// until TryStart hands it out again.
type Flat struct {
	total int
	slots []flatAlloc // handle h is slots[h-1]; nodes == 0 marks a free slot
	free  []Alloc     // released handles, reused last-in first-out
	busy  int
	used  int

	ends []flatEnd // Plan's scratch: the running jobs' end estimates
}

type flatAlloc struct {
	jobID  int
	nodes  int
	expEnd units.Time // walltime-based end estimate
}

// flatEnd is one running allocation's contribution to a plan: nodes
// freeing at end.
type flatEnd struct {
	end   units.Time
	nodes int
}

// NewFlat returns a flat machine with the given node count.
func NewFlat(total int) *Flat {
	if total <= 0 {
		panic("machine: flat machine needs a positive node count")
	}
	return &Flat{total: total}
}

// Name implements Machine.
func (f *Flat) Name() string { return fmt.Sprintf("flat-%d", f.total) }

// TotalNodes implements Machine.
func (f *Flat) TotalNodes() int { return f.total }

// IdleNodes implements Machine.
func (f *Flat) IdleNodes() int { return f.total - f.busy }

// BusyNodes implements Machine.
func (f *Flat) BusyNodes() int { return f.busy }

// UsedNodes implements Machine. On a flat machine every allocated node
// was requested, so this equals BusyNodes.
func (f *Flat) UsedNodes() int { return f.used }

// RunningCount implements Machine.
func (f *Flat) RunningCount() int { return len(f.slots) - len(f.free) }

// CanFitEver implements Machine.
func (f *Flat) CanFitEver(nodes int) bool { return nodes > 0 && nodes <= f.total }

// CanStartNow implements Machine.
func (f *Flat) CanStartNow(nodes int) bool { return nodes > 0 && nodes <= f.IdleNodes() }

// TryStart implements Machine.
func (f *Flat) TryStart(jobID, nodes int, now units.Time, walltime units.Duration) (Alloc, bool) {
	if !f.CanStartNow(nodes) {
		return NoAlloc, false
	}
	var h Alloc
	if k := len(f.free); k > 0 {
		h, f.free = f.free[k-1], f.free[:k-1]
	} else {
		f.slots = append(f.slots, flatAlloc{})
		h = Alloc(len(f.slots))
	}
	f.slots[h-1] = flatAlloc{jobID: jobID, nodes: nodes, expEnd: now.Add(walltime)}
	f.busy += nodes
	f.used += nodes
	return h, true
}

// TryStartAt implements Machine; placement hints are meaningless on a
// flat machine, so it defers to TryStart.
func (f *Flat) TryStartAt(jobID, nodes int, now units.Time, walltime units.Duration, _ int) (Alloc, bool) {
	return f.TryStart(jobID, nodes, now, walltime)
}

// Release implements Machine.
func (f *Flat) Release(a Alloc, _ units.Time) {
	if a < 1 || int(a) > len(f.slots) || f.slots[a-1].nodes == 0 {
		panic(fmt.Sprintf("machine: release of unknown allocation %d", a))
	}
	al := &f.slots[a-1]
	f.busy -= al.nodes
	f.used -= al.nodes
	*al = flatAlloc{}
	f.free = append(f.free, a)
}

// Clone implements Machine.
func (f *Flat) Clone() Machine { return f.CloneInto(nil) }

// CloneInto implements Machine: the allocation table is copied into
// dst's slices when dst is a retired clone of the same size.
func (f *Flat) CloneInto(dst Machine) Machine {
	d, ok := dst.(*Flat)
	if !ok || d == f || d.total != f.total {
		d = &Flat{total: f.total}
	}
	d.busy, d.used = f.busy, f.used
	d.slots = append(d.slots[:0], f.slots...)
	d.free = append(d.free[:0], f.free...)
	return d
}

// Plan implements Machine: the classic availability profile over time,
// built from the running allocations sorted by end estimate. The sort
// buffer lives on the machine, so Plan is not safe for concurrent use
// with itself on one machine.
func (f *Flat) Plan(now units.Time) Plan {
	f.ends = f.ends[:0]
	for _, al := range f.slots {
		if al.nodes == 0 {
			continue
		}
		e := al.expEnd
		if e < now {
			// A job at its walltime limit is released at exactly
			// start+walltime; an estimate in the past means it is being
			// processed this instant — treat the nodes as freeing now.
			e = now
		}
		f.ends = append(f.ends, flatEnd{e, al.nodes})
	}
	slices.SortFunc(f.ends, func(a, b flatEnd) int { return cmp.Compare(a.end, b.end) })

	p := &flatPlan{now: now}
	p.times = append(p.times, now)
	p.avail = append(p.avail, f.IdleNodes())
	cur := f.IdleNodes()
	for _, e := range f.ends {
		cur += e.nodes
		if last := len(p.times) - 1; e.end == p.times[last] {
			p.avail[last] = cur // freeing now, or with the previous end
			continue
		}
		p.times = append(p.times, e.end)
		p.avail = append(p.avail, cur)
	}
	return p
}

// flatPlan is a step function of available nodes over time. avail[i]
// holds over [times[i], times[i+1]) and avail[len-1] holds forever.
type flatPlan struct {
	now   units.Time
	times []units.Time
	avail []int
	saves []flatSnap // Save/Restore stack; buffers reused across marks
}

// flatSnap is one saved profile. The whole step function is copied:
// Commit both rewrites values and inserts breakpoints, so a prefix
// length alone cannot rewind it. Profiles are small (one step per
// distinct end time plus commitments) and the buffers are reused, so a
// snapshot is a short copy with no allocation in steady state.
type flatSnap struct {
	times []units.Time
	avail []int
}

// Now implements Plan.
func (p *flatPlan) Now() units.Time { return p.now }

// Clone implements Plan.
func (p *flatPlan) Clone() Plan {
	return &flatPlan{
		now:   p.now,
		times: append([]units.Time(nil), p.times...),
		avail: append([]int(nil), p.avail...),
	}
}

// Save implements Plan.
func (p *flatPlan) Save() PlanMark {
	d := len(p.saves)
	if cap(p.saves) > d {
		p.saves = p.saves[:d+1]
	} else {
		p.saves = append(p.saves, flatSnap{})
	}
	s := &p.saves[d]
	s.times = append(s.times[:0], p.times...)
	s.avail = append(s.avail[:0], p.avail...)
	return PlanMark(d)
}

// Restore implements Plan.
func (p *flatPlan) Restore(m PlanMark) {
	if m < 0 || int(m) >= len(p.saves) {
		panic("machine: flat plan restore of an invalid mark")
	}
	s := &p.saves[m]
	p.times = append(p.times[:0], s.times...)
	p.avail = append(p.avail[:0], s.avail...)
	p.saves = p.saves[:m+1] // the mark stays restorable; later marks die
}

// StartableNow implements Plan: on a flat machine the answer needs only
// the profile segments inside [now, now+walltime), screened by the
// availability at now.
func (p *flatPlan) StartableNow(nodes int, walltime units.Duration) (int, bool) {
	if nodes <= 0 || walltime <= 0 {
		return 0, true // as EarliestStart: degenerate requests start now
	}
	if p.avail[0] < nodes {
		return -1, false
	}
	if p.feasible(nodes, p.now, walltime) {
		return 0, true
	}
	return -1, false
}

// FreeNow implements Plan: the nodes available at now. A flat request
// holds exactly the nodes it asks for.
func (p *flatPlan) FreeNow(int) int { return p.avail[0] }

// EarliestStart implements Plan.
func (p *flatPlan) EarliestStart(nodes int, walltime units.Duration) (units.Time, int) {
	if nodes <= 0 || walltime <= 0 {
		return p.now, 0
	}
	maxAvail := 0
	for _, a := range p.avail {
		if a > maxAvail {
			maxAvail = a
		}
	}
	if nodes > maxAvail {
		return units.Forever, -1
	}
	for i := range p.times {
		if p.avail[i] < nodes {
			continue
		}
		t := p.times[i]
		if p.feasible(nodes, t, walltime) {
			return t, 0
		}
	}
	return units.Forever, -1
}

// feasible reports whether avail >= nodes over [t, t+walltime).
func (p *flatPlan) feasible(nodes int, t units.Time, walltime units.Duration) bool {
	end := t.Add(walltime)
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
	if i < 0 {
		i = 0
	}
	for ; i < len(p.times); i++ {
		if p.times[i] >= end {
			break
		}
		segEnd := units.Forever
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		if segEnd <= t {
			continue
		}
		if p.avail[i] < nodes {
			return false
		}
	}
	return true
}

// Commit implements Plan.
func (p *flatPlan) Commit(nodes int, start units.Time, walltime units.Duration, _ int) {
	if nodes <= 0 || walltime <= 0 {
		return
	}
	if start < p.now {
		panic("machine: flat plan commit before now")
	}
	if !p.feasible(nodes, start, walltime) {
		panic("machine: infeasible flat plan commitment")
	}
	end := start.Add(walltime)
	p.insertBreak(start)
	p.insertBreak(end)
	for i := range p.times {
		if p.times[i] >= start && p.times[i] < end {
			p.avail[i] -= nodes
		}
	}
}

// Independent implements Plan: a flat pool has no placement identity,
// so only time windows that share no instant are independent.
// EarliestStart answers the earliest feasible instant, an order fixed
// by time alone.
func (p *flatPlan) Independent(a, b Placement) bool { return timeDisjoint(a, b) }

// insertBreak ensures a breakpoint exists at t, copying the value of the
// segment containing t.
func (p *flatPlan) insertBreak(t units.Time) {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if i < len(p.times) && p.times[i] == t {
		return
	}
	if i == len(p.times) {
		p.times = append(p.times, t)
		p.avail = append(p.avail, p.avail[len(p.avail)-1])
		return
	}
	val := p.avail[0]
	if i > 0 {
		val = p.avail[i-1]
	}
	p.times = append(p.times, 0)
	copy(p.times[i+1:], p.times[i:])
	p.times[i] = t
	p.avail = append(p.avail, 0)
	copy(p.avail[i+1:], p.avail[i:])
	p.avail[i] = val
}
