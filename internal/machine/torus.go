package machine

import (
	"fmt"
	"sort"

	"amjs/internal/units"
)

// Torus models a torus-connected machine at midplane granularity: jobs
// run in rectangular cuboids of midplanes, the allocation shape of Blue
// Gene-class systems. Compared with the 1-D Partition model, the 3-D
// mesh produces richer external fragmentation — idle midplanes that
// form no free cuboid — which is the subject of the authors' companion
// work on torus-connected supercomputers (Tang et al., IPDPS 2011,
// cited as [22]).
//
// Placement is mesh-style (no wraparound): a cuboid of shape a×b×c must
// fit inside the machine's X×Y×Z extents. For a request of m midplanes
// the candidate shapes are the minimal-volume cuboids covering m,
// enumerated deterministically.
type Torus struct {
	x, y, z int // extents in midplanes
	perMP   int // nodes per midplane

	nextID Alloc
	busy   []bool // flattened [x][y][z]
	allocs map[Alloc]torusAlloc
	used   int
}

type torusAlloc struct {
	jobID  int
	nodes  int
	cells  []int // occupied midplane indices
	expEnd units.Time
}

// NewTorus returns a torus machine with the given midplane extents and
// nodes per midplane.
func NewTorus(x, y, z, perMP int) *Torus {
	if x <= 0 || y <= 0 || z <= 0 || perMP <= 0 {
		panic("machine: torus machine needs positive dimensions")
	}
	return &Torus{
		x: x, y: y, z: z, perMP: perMP,
		busy:   make([]bool, x*y*z),
		allocs: make(map[Alloc]torusAlloc),
	}
}

// NewIntrepidTorus returns a 3-D model of Intrepid's scale: 5×4×4 = 80
// midplanes of 512 nodes (the true machine was organized in rows of
// racks; the 5×4×4 mesh is the standard abstraction of its midplane
// connectivity).
func NewIntrepidTorus() *Torus { return NewTorus(5, 4, 4, 512) }

// Name implements Machine.
func (t *Torus) Name() string {
	return fmt.Sprintf("torus-%dx%dx%dx%d", t.x, t.y, t.z, t.perMP)
}

// TotalNodes implements Machine.
func (t *Torus) TotalNodes() int { return t.x * t.y * t.z * t.perMP }

// BusyNodes implements Machine.
func (t *Torus) BusyNodes() int {
	n := 0
	for _, b := range t.busy {
		if b {
			n++
		}
	}
	return n * t.perMP
}

// IdleNodes implements Machine.
func (t *Torus) IdleNodes() int { return t.TotalNodes() - t.BusyNodes() }

// UsedNodes implements Machine.
func (t *Torus) UsedNodes() int { return t.used }

// RunningCount implements Machine.
func (t *Torus) RunningCount() int { return len(t.allocs) }

// CanFitEver implements Machine.
func (t *Torus) CanFitEver(nodes int) bool {
	return nodes > 0 && nodes <= t.TotalNodes()
}

// cellIndex flattens (x, y, z) coordinates.
func (t *Torus) cellIndex(x, y, z int) int { return (x*t.y+y)*t.z + z }

// shape is a candidate cuboid.
type shape struct{ a, b, c int }

// shapesFor enumerates the candidate cuboids for a request of the given
// node count: every shape with the minimal covering volume, sorted
// deterministically. Returns nil when the request cannot fit.
func (t *Torus) shapesFor(nodes int) []shape {
	if !t.CanFitEver(nodes) {
		return nil
	}
	m := (nodes + t.perMP - 1) / t.perMP
	bestVol := -1
	var shapes []shape
	for a := 1; a <= t.x; a++ {
		for b := 1; b <= t.y; b++ {
			for c := 1; c <= t.z; c++ {
				vol := a * b * c
				if vol < m {
					continue
				}
				switch {
				case bestVol == -1 || vol < bestVol:
					bestVol = vol
					shapes = shapes[:0]
					shapes = append(shapes, shape{a, b, c})
				case vol == bestVol:
					shapes = append(shapes, shape{a, b, c})
				}
			}
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		si, sj := shapes[i], shapes[j]
		if si.a != sj.a {
			return si.a < sj.a
		}
		if si.b != sj.b {
			return si.b < sj.b
		}
		return si.c < sj.c
	})
	return shapes
}

// cellsAt returns the flattened midplane indices of the cuboid of the
// given shape anchored at origin (ox, oy, oz), or nil when it does not
// fit inside the mesh.
func (t *Torus) cellsAt(s shape, ox, oy, oz int) []int {
	if ox+s.a > t.x || oy+s.b > t.y || oz+s.c > t.z {
		return nil
	}
	cells := make([]int, 0, s.a*s.b*s.c)
	for dx := 0; dx < s.a; dx++ {
		for dy := 0; dy < s.b; dy++ {
			for dz := 0; dz < s.c; dz++ {
				cells = append(cells, t.cellIndex(ox+dx, oy+dy, oz+dz))
			}
		}
	}
	return cells
}

// placements iterates deterministically over every (shape, origin)
// placement for the request, invoking f with the decoded hint and the
// cell set; iteration stops when f returns false.
func (t *Torus) placements(nodes int, f func(hint int, cells []int) bool) {
	shapes := t.shapesFor(nodes)
	numCells := t.x * t.y * t.z
	for si, s := range shapes {
		for ox := 0; ox+s.a <= t.x; ox++ {
			for oy := 0; oy+s.b <= t.y; oy++ {
				for oz := 0; oz+s.c <= t.z; oz++ {
					hint := si*numCells + t.cellIndex(ox, oy, oz)
					if !f(hint, t.cellsAt(s, ox, oy, oz)) {
						return
					}
				}
			}
		}
	}
}

// cuboid decodes a placement hint into the cuboid's origin and extents
// along (x, y, z); ok is false when the hint names no placement.
func (t *Torus) cuboid(nodes, hint int) (origin, extent [3]int, ok bool) {
	shapes := t.shapesFor(nodes)
	numCells := t.x * t.y * t.z
	if hint < 0 || hint/numCells >= len(shapes) {
		return origin, extent, false
	}
	s, o := shapes[hint/numCells], hint%numCells
	origin = [3]int{o / (t.y * t.z), (o / t.z) % t.y, o % t.z}
	extent = [3]int{s.a, s.b, s.c}
	return origin, extent, true
}

// decodeHint recovers the cell set for a placement hint.
func (t *Torus) decodeHint(nodes, hint int) []int {
	o, e, ok := t.cuboid(nodes, hint)
	if !ok {
		return nil
	}
	return t.cellsAt(shape{e[0], e[1], e[2]}, o[0], o[1], o[2])
}

// cellsFreeNow reports whether every cell is idle.
func (t *Torus) cellsFreeNow(cells []int) bool {
	if cells == nil {
		return false
	}
	for _, c := range cells {
		if t.busy[c] {
			return false
		}
	}
	return true
}

// CanStartNow implements Machine.
func (t *Torus) CanStartNow(nodes int) bool {
	ok := false
	t.placements(nodes, func(_ int, cells []int) bool {
		if t.cellsFreeNow(cells) {
			ok = true
			return false
		}
		return true
	})
	return ok
}

// TryStart implements Machine with first-fit placement.
func (t *Torus) TryStart(jobID, nodes int, now units.Time, walltime units.Duration) (Alloc, bool) {
	found := -1
	t.placements(nodes, func(hint int, cells []int) bool {
		if t.cellsFreeNow(cells) {
			found = hint
			return false
		}
		return true
	})
	if found < 0 {
		return NoAlloc, false
	}
	return t.TryStartAt(jobID, nodes, now, walltime, found)
}

// TryStartAt implements Machine.
func (t *Torus) TryStartAt(jobID, nodes int, now units.Time, walltime units.Duration, hint int) (Alloc, bool) {
	cells := t.decodeHint(nodes, hint)
	if !t.cellsFreeNow(cells) {
		return NoAlloc, false
	}
	for _, c := range cells {
		t.busy[c] = true
	}
	t.nextID++
	t.allocs[t.nextID] = torusAlloc{jobID: jobID, nodes: nodes, cells: cells, expEnd: now.Add(walltime)}
	t.used += nodes
	return t.nextID, true
}

// Release implements Machine.
func (t *Torus) Release(a Alloc, _ units.Time) {
	al, ok := t.allocs[a]
	if !ok {
		panic(fmt.Sprintf("machine: release of unknown allocation %d", a))
	}
	for _, c := range al.cells {
		t.busy[c] = false
	}
	t.used -= al.nodes
	delete(t.allocs, a)
}

// Clone implements Machine.
func (t *Torus) Clone() Machine {
	c := &Torus{
		x: t.x, y: t.y, z: t.z, perMP: t.perMP,
		nextID: t.nextID, used: t.used,
		busy:   append([]bool(nil), t.busy...),
		allocs: make(map[Alloc]torusAlloc, len(t.allocs)),
	}
	for k, v := range t.allocs {
		c.allocs[k] = v
	}
	return c
}

// Plan implements Machine: per-midplane busy timelines, as in the 1-D
// partition model but over cuboid cell sets.
func (t *Torus) Plan(now units.Time) Plan {
	pl := &torusPlan{now: now, m: t, busy: make([][]ival, len(t.busy))}
	for _, al := range t.allocs {
		end := al.expEnd
		if end <= now {
			continue // freeing this instant
		}
		for _, c := range al.cells {
			pl.busy[c] = append(pl.busy[c], ival{from: now, to: end})
		}
	}
	for i := range pl.busy {
		sort.Slice(pl.busy[i], func(a, b int) bool { return pl.busy[i][a].from < pl.busy[i][b].from })
	}
	return pl
}

// torusPlan is the torus machine's what-if planner.
type torusPlan struct {
	now  units.Time
	m    *Torus
	busy [][]ival
	undo []planUndo
}

// planUndo records a single sorted-insert of an interval into timeline
// cell at position pos, so Restore can remove it again. Entries are
// undone strictly in reverse order, which keeps recorded positions
// valid: every later insert into the same cell is removed first.
type planUndo struct {
	cell, pos int
}

// undoInserts rewinds timelines by removing the logged inserts above
// mark, newest first.
func undoInserts(busy [][]ival, undo []planUndo, mark int) []planUndo {
	if mark < 0 || mark > len(undo) {
		panic("machine: plan restore of an invalid mark")
	}
	for i := len(undo) - 1; i >= mark; i-- {
		e := undo[i]
		ivs := busy[e.cell]
		copy(ivs[e.pos:], ivs[e.pos+1:])
		busy[e.cell] = ivs[:len(ivs)-1]
	}
	return undo[:mark]
}

// Now implements Plan.
func (pl *torusPlan) Now() units.Time { return pl.now }

// Clone implements Plan.
func (pl *torusPlan) Clone() Plan {
	c := &torusPlan{now: pl.now, m: pl.m, busy: make([][]ival, len(pl.busy))}
	for i := range pl.busy {
		c.busy[i] = append([]ival(nil), pl.busy[i]...)
	}
	return c
}

// Save implements Plan: the mark is the undo-log position.
func (pl *torusPlan) Save() PlanMark { return PlanMark(len(pl.undo)) }

// Restore implements Plan.
func (pl *torusPlan) Restore(m PlanMark) {
	pl.undo = undoInserts(pl.busy, pl.undo, int(m))
}

// earliestForCells mirrors partPlan.earliestForBlock over an arbitrary
// cell set: jump the candidate start to the latest conflicting end
// until the window is clear.
func (pl *torusPlan) earliestForCells(cells []int, d units.Duration) units.Time {
	t := pl.now
	for {
		conflictEnd := units.Time(-1)
		windowEnd := t.Add(d)
		for _, c := range cells {
			for _, iv := range pl.busy[c] {
				if iv.from < windowEnd && t < iv.to && iv.to > conflictEnd {
					conflictEnd = iv.to
				}
			}
		}
		if conflictEnd < 0 {
			return t
		}
		t = conflictEnd
	}
}

// StartableNow implements Plan. EarliestStart already stops at the
// first immediate fit, so delegation costs nothing extra on a hit; the
// torus has no cheaper occupancy shortcut that preserves the hint.
func (pl *torusPlan) StartableNow(nodes int, walltime units.Duration) (int, bool) {
	ts, hint := pl.EarliestStart(nodes, walltime)
	if ts != pl.now {
		return -1, false
	}
	return hint, true
}

// FreeNow implements Plan: the cells no running job or commitment holds
// at now, at full size. A request holds whole cells, at least as many
// nodes as it asks for.
func (pl *torusPlan) FreeNow(int) int {
	free := 0
	for _, ivs := range pl.busy {
		held := false
		for _, iv := range ivs {
			if iv.from <= pl.now && pl.now < iv.to {
				held = true
				break
			}
		}
		if !held {
			free++
		}
	}
	return free * pl.m.perMP
}

// EarliestStart implements Plan.
func (pl *torusPlan) EarliestStart(nodes int, walltime units.Duration) (units.Time, int) {
	if walltime <= 0 || !pl.m.CanFitEver(nodes) {
		return units.Forever, -1
	}
	best := units.Forever
	hint := -1
	pl.m.placements(nodes, func(h int, cells []int) bool {
		ts := pl.earliestForCells(cells, walltime)
		if ts < best {
			best, hint = ts, h
		}
		return best != pl.now // stop early on an immediate fit
	})
	return best, hint
}

// Independent implements Plan: time windows apart, or cuboids that
// share no cell. EarliestStart's answer order is by start, then
// placement index, fixed for the plan's life.
func (pl *torusPlan) Independent(a, b Placement) bool {
	if timeDisjoint(a, b) {
		return true
	}
	ao, as, aok := pl.m.cuboid(a.Nodes, a.Hint)
	bo, bs, bok := pl.m.cuboid(b.Nodes, b.Hint)
	if !aok || !bok {
		return false
	}
	for d := range ao {
		if ao[d]+as[d] <= bo[d] || bo[d]+bs[d] <= ao[d] {
			return true
		}
	}
	return false
}

// Commit implements Plan.
func (pl *torusPlan) Commit(nodes int, start units.Time, walltime units.Duration, hint int) {
	cells := pl.m.decodeHint(nodes, hint)
	if cells == nil {
		panic("machine: invalid torus plan commitment")
	}
	if start < pl.now {
		panic("machine: torus plan commit before now")
	}
	end := start.Add(walltime)
	for _, c := range cells {
		for _, iv := range pl.busy[c] {
			if iv.from < end && start < iv.to {
				panic("machine: infeasible torus plan commitment")
			}
		}
		ivs := append(pl.busy[c], ival{from: start, to: end})
		k := len(ivs) - 1
		for ; k > 0 && ivs[k-1].from > ivs[k].from; k-- {
			ivs[k-1], ivs[k] = ivs[k], ivs[k-1]
		}
		pl.busy[c] = ivs
		pl.undo = append(pl.undo, planUndo{cell: c, pos: k})
	}
}
