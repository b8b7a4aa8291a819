package machine

import (
	"fmt"
	"math"
	"math/bits"

	"amjs/internal/units"
)

// Partition models a Blue Gene/P-class machine: a row of midplanes on
// which jobs run in contiguous, aligned partitions whose sizes are
// powers of two (in midplanes), plus the special full-system partition.
// A request is rounded up to the smallest partition that holds it, so a
// 600-node job on a 512-node-midplane machine occupies a 1024-node
// (2-midplane) partition.
//
// Alignment and contiguity are what make external fragmentation
// possible: idle midplanes that do not form an aligned block cannot
// serve a larger request even when their total count would suffice.
//
// Occupancy is a uint64 bitset (bit i = midplane i busy), so block
// probes are word-parallel mask tests and idle accounting is a cached
// popcount. Alongside the bits the machine maintains its availability
// index, rel: for every aligned block of every width class, the latest
// walltime-based release over the block's busy midplanes. A start or
// release updates only the blocks it touches, and Plan copies the index
// instead of rebuilding it.
type Partition struct {
	midplanes int // number of midplanes
	perMP     int // nodes per midplane
	mpShift   int // log2(perMP) when perMP is a power of two, else -1
	maxPow2   int // largest power-of-two block size <= midplanes

	nextID   Alloc
	bits     []uint64 // occupancy bitset; bit i set = midplane i busy
	busyMPs  int      // popcount of bits, maintained incrementally
	lastMask uint64   // valid-bit mask for the final bitset word
	allocs   map[Alloc]partAlloc
	used     int // sum of requested node counts of running jobs

	// rel is the release index, one segment per width class (see
	// classOff): rel[classOff[k]+b] is the latest release estimate over
	// the busy midplanes of aligned block b of width 2^k, idleRelease when
	// the block is idle. Class 0 is the per-midplane estimate; the final
	// class, present only when midplanes is not a power of two, is the
	// full-system block. setBlock keeps it exact.
	rel      []units.Time
	classOff []int

	// minBusy is the earliest release estimate over the busy midplanes
	// (meaningful while busyMPs > 0): a plan at or past it holds an
	// overdue midplane.
	minBusy units.Time

	// planPool holds retired planner objects handed back through Recycle,
	// so the one-plan-per-pass pattern stops allocating after warm-up. A
	// small freelist (not a single slot) because some policies keep two
	// plans live within one pass (a commitment view plus a free view).
	planPool []*partPlan
}

// idleRelease marks an idle block in the release index: it precedes
// every instant, so a read clamped to max(·, now) gives now.
const idleRelease = units.Time(math.MinInt64)

type partAlloc struct {
	jobID  int
	nodes  int // requested nodes
	start  int // first midplane
	width  int // midplanes occupied
	expEnd units.Time
}

// NewPartition returns a partitioned machine with the given number of
// midplanes and nodes per midplane. Intrepid is NewPartition(80, 512).
func NewPartition(midplanes, perMP int) *Partition {
	if midplanes <= 0 || perMP <= 0 {
		panic("machine: partition machine needs positive dimensions")
	}
	p := &Partition{
		midplanes: midplanes,
		perMP:     perMP,
		mpShift:   -1,
		maxPow2:   prevPow2(midplanes),
		bits:      make([]uint64, (midplanes+63)/64),
		lastMask:  ^uint64(0),
		allocs:    make(map[Alloc]partAlloc),
	}
	if perMP&(perMP-1) == 0 {
		p.mpShift = bits.Len(uint(perMP)) - 1
	}
	if r := midplanes & 63; r != 0 {
		p.lastMask = uint64(1)<<uint(r) - 1
	}
	n := 0
	for w := 1; w <= p.maxPow2; w <<= 1 {
		p.classOff = append(p.classOff, n)
		n += midplanes / w
	}
	if midplanes != p.maxPow2 {
		p.classOff = append(p.classOff, n)
		n++
	}
	p.rel = make([]units.Time, n)
	for i := range p.rel {
		p.rel[i] = idleRelease
	}
	return p
}

// NewIntrepid returns the machine model of the paper's evaluation
// platform: the Intrepid Blue Gene/P, 80 midplanes of 512 nodes
// (40,960 nodes).
func NewIntrepid() *Partition { return NewPartition(80, 512) }

// Name implements Machine.
func (p *Partition) Name() string {
	return fmt.Sprintf("partition-%dx%d", p.midplanes, p.perMP)
}

// TotalNodes implements Machine.
func (p *Partition) TotalNodes() int { return p.midplanes * p.perMP }

// NodesPerMidplane returns the midplane granularity.
func (p *Partition) NodesPerMidplane() int { return p.perMP }

// Midplanes returns the midplane count.
func (p *Partition) Midplanes() int { return p.midplanes }

// BusyNodes implements Machine (whole occupied partitions). The busy
// midplane count is a maintained popcount, so this is O(1).
func (p *Partition) BusyNodes() int { return p.busyMPs * p.perMP }

// IdleNodes implements Machine.
func (p *Partition) IdleNodes() int { return p.TotalNodes() - p.BusyNodes() }

// UsedNodes implements Machine (requested nodes only).
func (p *Partition) UsedNodes() int { return p.used }

// RunningCount implements Machine.
func (p *Partition) RunningCount() int { return len(p.allocs) }

// BlockMidplanes returns the width in midplanes of the partition that
// would serve a request of the given node count, or -1 when the request
// can never fit.
func (p *Partition) BlockMidplanes(nodes int) int {
	if nodes <= 0 || nodes > p.TotalNodes() {
		return -1
	}
	var m int
	if p.mpShift >= 0 {
		m = (nodes + p.perMP - 1) >> uint(p.mpShift)
	} else {
		m = (nodes + p.perMP - 1) / p.perMP
	}
	if m <= p.maxPow2 {
		return nextPow2(m)
	}
	return p.midplanes // full-system partition
}

// PartitionNodes returns the node count of the partition serving the
// request (the request rounded up to partition granularity), or -1.
func (p *Partition) PartitionNodes(nodes int) int {
	w := p.BlockMidplanes(nodes)
	if w < 0 {
		return -1
	}
	return w * p.perMP
}

// CanFitEver implements Machine.
func (p *Partition) CanFitEver(nodes int) bool { return p.BlockMidplanes(nodes) > 0 }

// blockMask returns the bitset word index and mask covering midplanes
// [start, start+span) within one word; span must not cross a word
// boundary. Aligned power-of-two blocks up to 64 never do.
func blockMask(start, span int) (word int, mask uint64) {
	return start >> 6, (uint64(1)<<uint(span) - 1) << uint(start&63)
}

// blockFreeNow reports whether midplanes [start, start+width) are all
// idle in the occupancy bitset occ, testing whole words at a time.
func blockFreeNow(occ []uint64, start, width int) bool {
	for end := start + width; start < end; {
		span := 64 - start&63
		if span > end-start {
			span = end - start
		}
		w, mask := blockMask(start, span)
		if occ[w]&mask != 0 {
			return false
		}
		start += span
	}
	return true
}

// setBlock marks the aligned block [start, start+width) busy until end
// (or idle when busy=false) and maintains the popcount, the release
// index and minBusy. Each width class changes in the blocks the job's
// block covers, which take the new value, and in the one block that
// covers it, which is the larger of its two halves: O(width + log
// midplanes) per call, plus one pass over the per-midplane class when a
// release frees the earliest busy estimate.
func (p *Partition) setBlock(start, width int, busy bool, end units.Time) {
	for i := start; i < start+width; {
		span := min(64-i&63, start+width-i)
		w, mask := blockMask(i, span)
		if busy {
			p.busyMPs += span - bits.OnesCount64(p.bits[w]&mask)
			p.bits[w] |= mask
		} else {
			p.busyMPs -= bits.OnesCount64(p.bits[w] & mask)
			p.bits[w] &^= mask
		}
		i += span
	}
	v := idleRelease
	if busy {
		v = end
	}
	was := p.rel[start] // class 0: the block's midplanes share one estimate
	for k, c := 0, 1; c <= p.maxPow2; k, c = k+1, c<<1 {
		seg := p.rel[p.classOff[k] : p.classOff[k]+p.midplanes>>uint(k)]
		if c <= width {
			for b := start >> uint(k); b < (start+width)>>uint(k); b++ {
				seg[b] = v
			}
			continue
		}
		b := start >> uint(k)
		if b >= len(seg) {
			break // the tail past the last whole block of this class
		}
		half := p.rel[p.classOff[k-1]+2*b:]
		seg[b] = max(half[0], half[1])
	}
	if p.midplanes != p.maxPow2 {
		// The full-system block: the largest blocks that tile [0, midplanes).
		full, pos := idleRelease, 0
		for k := bits.Len(uint(p.maxPow2)) - 1; k >= 0; k-- {
			if p.midplanes>>uint(k)&1 != 0 {
				full = max(full, p.rel[p.classOff[k]+pos>>uint(k)])
				pos += 1 << uint(k)
			}
		}
		p.rel[len(p.rel)-1] = full
	}
	// A start fills an idle block, so busyMPs == width means the machine
	// was idle before it.
	switch {
	case busy && (p.busyMPs == width || end < p.minBusy):
		p.minBusy = end
	case !busy && p.busyMPs > 0 && was == p.minBusy:
		p.minBusy = units.Forever
		for _, r := range p.rel[:p.midplanes] {
			if r != idleRelease && r < p.minBusy {
				p.minBusy = r
			}
		}
	}
}

// alignCandMasks[k] has a bit set at every multiple of 2^k within a
// word: the aligned candidate start offsets for width-2^k blocks.
var alignCandMasks = [7]uint64{
	^uint64(0),
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
	1,
}

// firstFreeBlock returns the lowest aligned start >= from of a block of
// the given width that is all idle in the occupancy bitset occ, or -1.
// For widths inside one bitset word the scan is word-parallel: fold the
// free mask so bit s survives iff midplanes [s, s+width) are all idle,
// keep aligned offsets, and take the lowest surviving bit — a handful
// of register operations per 64 midplanes instead of a per-candidate
// probe loop.
func (p *Partition) firstFreeBlock(occ []uint64, width, from int) int {
	if width > 64 || width > p.maxPow2 {
		// At most one or two candidates (width 64 on small machines, or
		// the full-system partition): probe them directly.
		for s := (from + width - 1) / width * width; s+width <= p.midplanes; s += width {
			if blockFreeNow(occ, s, width) {
				return s
			}
		}
		return -1
	}
	for wi := from >> 6; wi < len(occ); wi++ {
		free := ^occ[wi]
		if wi == len(occ)-1 {
			free &= p.lastMask
		}
		free = foldFree(free, width) & alignCandMasks[bits.Len(uint(width))-1]
		if wi == from>>6 {
			free &= ^uint64(0) << uint(from&63)
		}
		if free != 0 {
			return wi<<6 + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// foldFree folds a word's free mask so that bit s survives iff bits
// [s, s+width) are all set; width is a power of two up to 64.
func foldFree(free uint64, width int) uint64 {
	for s := 1; s < width; s <<= 1 {
		free &= free >> uint(s)
	}
	return free
}

// CanStartNow implements Machine.
func (p *Partition) CanStartNow(nodes int) bool {
	width := p.BlockMidplanes(nodes)
	return width > 0 && p.firstFreeBlock(p.bits, width, 0) >= 0
}

// TryStart implements Machine with first-fit placement over aligned
// blocks.
func (p *Partition) TryStart(jobID, nodes int, now units.Time, walltime units.Duration) (Alloc, bool) {
	width := p.BlockMidplanes(nodes)
	if width < 0 {
		return NoAlloc, false
	}
	hint := p.firstFreeBlock(p.bits, width, 0)
	if hint < 0 {
		return NoAlloc, false
	}
	return p.TryStartAt(jobID, nodes, now, walltime, hint)
}

// TryStartAt implements Machine, placing the job at the given start
// midplane if that aligned block is free.
func (p *Partition) TryStartAt(jobID, nodes int, now units.Time, walltime units.Duration, hint int) (Alloc, bool) {
	width := p.BlockMidplanes(nodes)
	if width < 0 || hint < 0 || hint&(width-1) != 0 || hint+width > p.midplanes {
		return NoAlloc, false
	}
	if !blockFreeNow(p.bits, hint, width) {
		return NoAlloc, false
	}
	end := now.Add(walltime)
	p.setBlock(hint, width, true, end)
	p.nextID++
	p.allocs[p.nextID] = partAlloc{
		jobID: jobID, nodes: nodes, start: hint, width: width,
		expEnd: end,
	}
	p.used += nodes
	return p.nextID, true
}

// Release implements Machine.
func (p *Partition) Release(a Alloc, _ units.Time) {
	al, ok := p.allocs[a]
	if !ok {
		panic(fmt.Sprintf("machine: release of unknown allocation %d", a))
	}
	p.setBlock(al.start, al.width, false, 0)
	p.used -= al.nodes
	delete(p.allocs, a)
}

// Clone implements Machine.
func (p *Partition) Clone() Machine {
	c := &Partition{
		midplanes: p.midplanes, perMP: p.perMP, mpShift: p.mpShift, maxPow2: p.maxPow2,
		lastMask: p.lastMask,
		nextID:   p.nextID, used: p.used, busyMPs: p.busyMPs, minBusy: p.minBusy,
		bits:     append([]uint64(nil), p.bits...),
		rel:      append([]units.Time(nil), p.rel...),
		classOff: p.classOff, // geometry: never written after NewPartition
		allocs:   make(map[Alloc]partAlloc, len(p.allocs)),
	}
	for k, v := range p.allocs {
		c.allocs[k] = v
	}
	return c
}

// CloneInto implements InPlaceCloner: the occupancy state lands in
// dst's storage when dst is a retired clone of the same geometry. The
// destination keeps its own plan pool — its pooled planners point at
// it and remain reusable across re-clones.
func (p *Partition) CloneInto(dst Machine) Machine {
	d, ok := dst.(*Partition)
	if !ok || d == p || d.midplanes != p.midplanes || d.perMP != p.perMP {
		return p.Clone()
	}
	d.nextID, d.used, d.busyMPs, d.minBusy = p.nextID, p.used, p.busyMPs, p.minBusy
	copy(d.bits, p.bits)
	copy(d.rel, p.rel)
	clear(d.allocs)
	for k, v := range p.allocs {
		d.allocs[k] = v
	}
	return d
}

// Plan implements Machine. The planner copies the machine's release
// index and occupancy bits — a few hundred words on Intrepid, no
// allocation-table walk, no per-plan rebuild — into a recycled
// planner's buffers when the pool has one. The copy is a snapshot:
// starts and releases on the machine after Plan do not reach it.
func (p *Partition) Plan(now units.Time) Plan {
	var pl *partPlan
	if n := len(p.planPool); n > 0 {
		pl = p.planPool[n-1]
		p.planPool[n-1] = nil
		p.planPool = p.planPool[:n-1]
		pl.ovl = pl.ovl[:0]
	} else {
		pl = &partPlan{m: p, rel: make([]units.Time, len(p.rel)), bits: make([]uint64, len(p.bits))}
	}
	pl.now = now
	copy(pl.rel, p.rel)
	copy(pl.bits, p.bits)
	// A busy midplane at or past its walltime-based release estimate is
	// machine-occupied but profile-free at now.
	pl.overdue = p.busyMPs > 0 && p.minBusy <= now
	return pl
}

// Recycle implements PlanRecycler: a finished plan returns to the pool
// for the next Plan call to reset and reuse. Plans belonging to a
// different Partition instance (clones) are ignored rather than
// adopted, so a clone's pass can never corrupt a plan the original
// hands out.
func (p *Partition) Recycle(pl Plan) {
	if pp, ok := pl.(*partPlan); ok && pp.m == p {
		p.planPool = append(p.planPool, pp)
	}
}

// ival is a half-open busy interval [from, to).
type ival struct {
	from, to units.Time
}

// partPlan is the partition machine's what-if planner: an indexed
// availability profile.
//
// The running jobs' future is the machine's release index as it stood
// when the plan was built (rel, the same layout as Partition.rel):
// aligned block b of width 2^k is busy exactly over [now, max(r, now))
// with r its index entry, and entries at or before now (idle blocks,
// overdue ones) read as free at now. Commitments made through the plan
// (reservations, window-search speculation) live in a flat overlay log
// (ovl): one entry per commitment holding its midplane range and time
// window, appended by Commit in commit order. The log stays tiny — a
// window search keeps at most the window's worth of speculative
// commitments live at once — so conflict probes are a
// branch-predictable linear scan over a contiguous array, and
// Save/Restore degenerate to remembering and restoring its length.
//
// With no overlays at all the earliest start of a block is simply its
// index entry clamped to now: each width class's segment is the
// per-width earliest-free cursor, immutable for the plan's lifetime.
type partPlan struct {
	now  units.Time
	m    *Partition
	rel  []units.Time // the machine's release index at Plan time
	bits []uint64     // the machine's occupancy bits at Plan time

	// overdue records whether any busy midplane's release estimate is at
	// or before now. Such midplanes are invisible to the occupancy sweep
	// yet free in the profile, so StartableNow must fall through to the
	// cursor scan only when one exists.
	overdue bool

	ovl []planOvl // overlay log: one entry per outstanding commitment
}

// planOvl is one committed block reservation: midplanes [lo, hi) are
// held over [from, to).
type planOvl struct {
	lo, hi   int
	from, to units.Time
}

// Now implements Plan.
func (pl *partPlan) Now() units.Time { return pl.now }

// Clone implements Plan.
func (pl *partPlan) Clone() Plan {
	return &partPlan{
		now:     pl.now,
		m:       pl.m,
		rel:     append([]units.Time(nil), pl.rel...),
		bits:    append([]uint64(nil), pl.bits...),
		overdue: pl.overdue,
		ovl:     append([]planOvl(nil), pl.ovl...),
	}
}

// CloneInto implements PlanCloner: the snapshot lands in dst's buffers
// when dst is a retired plan of the same machine (buffer lengths then
// match by construction), falling back to a fresh Clone otherwise.
func (pl *partPlan) CloneInto(dst Plan) Plan {
	d, ok := dst.(*partPlan)
	if !ok || d == pl || d.m != pl.m {
		return pl.Clone()
	}
	d.now = pl.now
	d.overdue = pl.overdue
	copy(d.rel, pl.rel)
	copy(d.bits, pl.bits)
	d.ovl = append(d.ovl[:0], pl.ovl...)
	return d
}

// Save implements Plan: the mark is the overlay-log length.
func (pl *partPlan) Save() PlanMark { return PlanMark(len(pl.ovl)) }

// Restore implements Plan: commitments are only ever appended, so
// rewinding is truncating the log.
func (pl *partPlan) Restore(m PlanMark) {
	if int(m) < 0 || int(m) > len(pl.ovl) {
		panic("machine: plan restore of an invalid mark")
	}
	pl.ovl = pl.ovl[:int(m)]
}

// releases returns the plan's index segment for the width's class:
// releases(w)[b] is the latest release estimate over aligned block b
// (starting at midplane b*w), idleRelease when the block was idle. The
// earliest instant the block is free of running jobs, ignoring
// overlays, is max(releases(w)[b], now).
func (pl *partPlan) releases(width int) []units.Time {
	m := pl.m
	if width == m.midplanes && width != m.maxPow2 {
		return pl.rel[len(pl.rel)-1:] // the full-system class
	}
	k := bits.Len(uint(width)) - 1
	return pl.rel[m.classOff[k] : m.classOff[k]+m.midplanes>>uint(k)]
}

// conflictEnd returns the latest end among overlay commitments that
// overlap midplanes [lo, hi) during [t, end), or -1 when the window is
// conflict-free.
func (pl *partPlan) conflictEnd(lo, hi int, t, end units.Time) units.Time {
	worst := units.Time(-1)
	for i := range pl.ovl {
		ov := &pl.ovl[i]
		if ov.lo < hi && lo < ov.hi && ov.from < end && t < ov.to && ov.to > worst {
			worst = ov.to
		}
	}
	return worst
}

// blockFree reports whether the aligned block [start, start+width) is
// free over [t, t+d) for a t >= now: the block's release must be <= t
// and no overlay commitment may overlap the window.
func (pl *partPlan) blockFree(start, width int, t units.Time, d units.Duration) bool {
	// start/width for an aligned start (the full-system block starts at 0).
	if pl.releases(width)[start>>uint(bits.TrailingZeros(uint(width)))] > t {
		return false
	}
	if len(pl.ovl) == 0 {
		return true
	}
	return pl.conflictEnd(start, start+width, t, t.Add(d)) < 0
}

// earliestForBlockFrom returns the earliest t >= from at which
// midplanes [lo, hi) are free of overlay commitments for the duration
// (index releases are already folded into from), or Forever once the
// candidate reaches bound (the caller's incumbent best: a later start
// cannot win, so the jump loop stops probing). It repeatedly jumps the
// candidate start to the latest end among currently conflicting overlay
// intervals: a window starting before a conflicting interval's end
// still overlaps that interval, so every conflicting end is a lower
// bound on the feasible start. Each jump passes at least one interval
// end, so the loop terminates.
func (pl *partPlan) earliestForBlockFrom(from units.Time, lo, hi int, d units.Duration, bound units.Time) units.Time {
	t := from
	for {
		if t >= bound {
			return units.Forever
		}
		ce := pl.conflictEnd(lo, hi, t, t.Add(d))
		if ce < 0 {
			return t
		}
		t = ce
	}
}

// immediateFit is the word-parallel immediate-start sweep: the lowest
// aligned block of the width whose midplanes were all idle on the
// machine when the plan was built and are uncommitted over [now, end),
// or -1. (A machine-idle block reads
// free at now in the index, so with no overlays it needs no further
// check.) A miss does not prove "not startable now" by itself: overdue
// midplanes are machine-busy yet profile-free.
//
// For widths inside one bitset word each word is masked once: the
// overlays live over [now, end) are ORed into its occupancy, and then
// the fold and the alignment mask leave exactly the aligned starts of
// blocks free of both, lowest first. Wider blocks (at most a couple of
// candidates) are probed one by one.
func (pl *partPlan) immediateFit(width int, end units.Time) int {
	m := pl.m
	if width > 64 || width > m.maxPow2 {
		for s := m.firstFreeBlock(pl.bits, width, 0); s >= 0; s = m.firstFreeBlock(pl.bits, width, s+width) {
			if len(pl.ovl) == 0 || pl.conflictEnd(s, s+width, pl.now, end) < 0 {
				return s
			}
		}
		return -1
	}
	align := alignCandMasks[bits.Len(uint(width))-1]
	for wi, busy := range pl.bits {
		valid := ^uint64(0)
		if wi == len(pl.bits)-1 {
			valid = m.lastMask
		}
		if foldFree(^busy&valid, width)&align == 0 {
			continue // no idle block here for the overlays to spare
		}
		if free := foldFree(^pl.overlaid(wi, busy, end)&valid, width) & align; free != 0 {
			return wi<<6 + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// overlaid returns the occupancy word wi of the bitset with the
// midplanes of every overlay live over [now, end) set as well.
func (pl *partPlan) overlaid(wi int, busy uint64, end units.Time) uint64 {
	lo := wi << 6
	for i := range pl.ovl {
		ov := &pl.ovl[i]
		if ov.from < end && pl.now < ov.to && ov.lo < lo+64 && lo < ov.hi {
			a, b := max(ov.lo, lo)-lo, min(ov.hi, lo+64)-lo
			busy |= (uint64(1)<<uint(b-a) - 1) << uint(a)
		}
	}
	return busy
}

// FreeNow implements Plan. A request of at least nodes nodes holds an
// aligned block of the request's width or a wider one, which is a union
// of such blocks, so the blocks of that width free at now bound what
// such requests hold side by side. The one partition that is not such
// a union, the full system of a machine whose midplane count is not a
// power of two, needs every midplane free, and then the bound is the
// whole machine. A midplane is free at now when its index entry is at
// or before now (idle or overdue) and no overlay holds it at now.
func (pl *partPlan) FreeNow(nodes int) int {
	m := pl.m
	width := m.BlockMidplanes(max(nodes, 1))
	if width < 0 {
		return 0
	}
	words := width >> 6 // whole bitset words per block, past one word
	blocks, all, run := 0, true, 0
	for wi, busy := range pl.bits {
		valid := ^uint64(0)
		if wi == len(pl.bits)-1 {
			valid = m.lastMask
		}
		if pl.overdue {
			busy = 0
			for i, r := range pl.rel[wi<<6 : min(wi<<6+64, m.midplanes)] {
				if r > pl.now {
					busy |= 1 << uint(i)
				}
			}
		}
		busy = pl.overlaid(wi, busy, pl.now+1) & valid
		all = all && busy == 0
		switch {
		case width > m.maxPow2: // the full system, counted by all
		case words == 0:
			blocks += bits.OnesCount64(foldFree(^busy&valid, width) & alignCandMasks[bits.Len(uint(width))-1])
		default:
			if wi%words == 0 {
				run = 0
			}
			if busy == 0 && valid == ^uint64(0) {
				if run++; run == words {
					blocks++
				}
			}
		}
	}
	if all {
		return m.midplanes * m.perMP
	}
	return blocks * width * m.perMP
}

// StartableNow implements Plan: EarliestStart's answer restricted to the
// "starts now" question. The occupancy sweep decides it outright unless
// an overdue allocation exists; only then is the per-width cursor
// consulted, so the common backfill screen never builds or walks the
// availability profile.
func (pl *partPlan) StartableNow(nodes int, walltime units.Duration) (int, bool) {
	width := pl.m.BlockMidplanes(nodes)
	if width < 0 || walltime <= 0 {
		return -1, false
	}
	end := pl.now.Add(walltime)
	if hint := pl.immediateFit(width, end); hint >= 0 {
		return hint, true
	}
	if !pl.overdue {
		// Every block free in the profile at now is machine-free, and the
		// sweep just proved all of those conflict with an overlay.
		return -1, false
	}
	// Mirror of EarliestStart's cursor scan, stopping at the first block
	// free at now (the scan's first strict minimum when the answer is
	// now, hence the identical hint).
	rel := pl.releases(width)
	for b, s := 0, 0; s+width <= pl.m.midplanes; b, s = b+1, s+width {
		if rel[b] <= pl.now && (len(pl.ovl) == 0 || pl.conflictEnd(s, s+width, pl.now, end) < 0) {
			return s, true
		}
	}
	return -1, false
}

// EarliestStart implements Plan. The hint is the start midplane of the
// chosen block. Ties keep the first (lowest) block: a candidate must
// strictly beat the incumbent, which the bound passed down to
// earliestForBlockFrom also enforces.
func (pl *partPlan) EarliestStart(nodes int, walltime units.Duration) (units.Time, int) {
	width := pl.m.BlockMidplanes(nodes)
	if width < 0 || walltime <= 0 {
		return units.Forever, -1
	}
	// Immediate-fit sweep: a probe that can be answered "now" — most
	// probes while a machine drains — never consults the profile below.
	// The sweep is a fast path only: the cursor scan reproduces the same
	// answer when it misses.
	end := pl.now.Add(walltime)
	hint := pl.immediateFit(width, end)
	if hint >= 0 {
		return pl.now, hint
	}
	rel := pl.releases(width)
	best := units.Forever
	if len(pl.ovl) == 0 {
		// Pure cursor scan: the earliest start per block is its index
		// release clamped to now; pick the first strict minimum.
		for b, s := 0, 0; s+width <= pl.m.midplanes; b, s = b+1, s+width {
			if t := max(rel[b], pl.now); t < best {
				best, hint = t, s
				if best == pl.now {
					break
				}
			}
		}
		return best, hint
	}
	for b, s := 0, 0; s+width <= pl.m.midplanes; b, s = b+1, s+width {
		t := pl.earliestForBlockFrom(max(rel[b], pl.now), s, s+width, walltime, best)
		if t < best {
			best, hint = t, s
		}
		if best == pl.now {
			break
		}
	}
	return best, hint
}

// Independent implements Plan: time windows apart, or aligned blocks
// that share no midplane. EarliestStart's answer order is by start,
// then block index, except that at now a block the machine holds idle
// comes before one that is only free in the profile (an overdue
// midplane). That split is fixed for the plan's life: the plan reads
// its own copy of the occupancy bits.
func (pl *partPlan) Independent(a, b Placement) bool {
	if timeDisjoint(a, b) {
		return true
	}
	wa, wb := pl.m.BlockMidplanes(a.Nodes), pl.m.BlockMidplanes(b.Nodes)
	if wa < 0 || wb < 0 || a.Hint < 0 || b.Hint < 0 {
		return false
	}
	return a.Hint+wa <= b.Hint || b.Hint+wb <= a.Hint
}

// Commit implements Plan.
func (pl *partPlan) Commit(nodes int, start units.Time, walltime units.Duration, hint int) {
	width := pl.m.BlockMidplanes(nodes)
	if width < 0 || hint < 0 || hint&(width-1) != 0 || hint+width > pl.m.midplanes {
		panic("machine: invalid partition plan commitment")
	}
	if start < pl.now || !pl.blockFree(hint, width, start, walltime) {
		panic("machine: infeasible partition plan commitment")
	}
	pl.ovl = append(pl.ovl, planOvl{
		lo: hint, hi: hint + width,
		from: start, to: start.Add(walltime),
	})
}
