package core

import (
	"math/bits"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// maxPermWindow bounds the window permutation search. The paper
// evaluates W up to 5; the bound is set two higher so the adaptive
// tuner and policy specs have headroom to explore past the paper's grid.
// 7 is where the worst case stops being cheap: branch-and-bound prunes
// most of the 7! = 5040 orderings in practice, but the tree grows
// factorially and W=8 would admit pathological windows two orders of
// magnitude costlier. Beyond the bound the window is processed in
// priority order without search.
const maxPermWindow = 7

// startableNow counts the jobs that can start at this instant under
// the plan, stopping at two — its callers only distinguish none /
// exactly one / several — and returns the first such job with its
// StartableNow hint. A start can only consume idle nodes, so a request
// exceeding the idle count is rejected before the (much more expensive)
// plan probe; when the machine is saturated every job short-circuits
// and the scan costs a handful of integer compares.
func startableNow(env sched.Env, plan machine.Plan, jobs []*job.Job) (n int, first *job.Job, hint int) {
	idle := env.Machine().IdleNodes()
	for _, j := range jobs {
		if j.Nodes > idle {
			continue
		}
		if h, ok := plan.StartableNow(j.Nodes, j.Walltime); ok {
			if n++; n == 2 {
				break
			}
			first, hint = j, h
		}
	}
	return n, first, hint
}

// bestPermutation returns the winning window order (indices into
// window). The criterion is least makespan, then most immediate starts,
// then the earliest permutation in lexicographic order — which is the
// priority order, preserving fairness on ties.
//
// The search is branch-and-bound over permutation prefixes: each prefix
// is committed once into the shared plan (Save/Restore brackets the
// speculation, so nothing is cloned), and a prefix whose bounds prove
// no completion can beat the incumbent is cut. The pruning bounds are
// exact — makespan and immediate-start nodes grow monotonically along a
// prefix, and the jobs startable now, capped by the plan's free
// capacity at now, bound further immediate starts — and the DFS visits
// permutations in lexicographic order updating only on strict
// improvement, so the winner is identical to the seed's exhaustive
// next-permutation loop (cross-checked by the oracle test in
// metricaware_oracle_test.go).
//
// The root's answers are filled first. Only when every one of them is
// now can every job start immediately in priority order (answers only
// move later as commits accumulate); that is then checked by placing
// the window in order, and when it holds no permutation can start more
// nodes or finish earlier, so the priority order wins outright.
//
// Orders that differ only by swapping independent jobs, or twin jobs of
// one (nodes, walltime) shape, are searched once (see dfs): a child
// reuses its parent's answer for every job independent of the one just
// committed, a sleep set keeps only the lower-index-first order of two
// independent jobs, and of two unplaced twins only the lower-index one
// is placed next. All these reductions are exact. The returned slice is
// scratch, valid until the next call on this scheduler.
func (s *MetricAware) bestPermutation(plan machine.Plan, window []*job.Job, now units.Time) []int {
	n := len(window)
	if s.search == nil {
		s.search = &permSearch{}
	}
	ps := s.search
	identity := ps.identity(n)
	if n <= 1 || n > maxPermWindow {
		return identity
	}
	ps.begin(plan, window, now, s.UtilizationFirst)
	ps.run()
	return ps.best
}

// SearchStats counts the window search's work since the scheduler's
// search scratch was created.
type SearchStats struct {
	Nodes     int64 // search-tree nodes expanded (leaves excluded)
	Asleep    int64 // children skipped because a sibling order covers them
	Inherited int64 // answers a child took over from its parent
	Probes    int64 // plan probes the search made, the all-start check's included
	Twins     int64 // children skipped as the swap of an unplaced lower-index twin
	CapCuts   int64 // children and nodes cut only because free capacity capped the bound
}

// SearchStats reports the window search counters.
func (s *MetricAware) SearchStats() SearchStats {
	if s.search == nil {
		return SearchStats{}
	}
	return s.search.stats
}

// permSearch is the branch-and-bound state of one window search. It
// lives on the scheduler so its per-depth buffers are reused across
// passes; after warm-up a search allocates nothing.
type permSearch struct {
	plan      machine.Plan
	window    []*job.Job
	now       units.Time
	n         int
	utilFirst bool

	perm []int // current prefix in perm[:depth]
	used uint  // bitmask of the window indices placed in the prefix

	// twins[c] is the bitmask of the window indices below c whose job
	// has c's (nodes, walltime) shape.
	twins [maxPermWindow]uint

	best      []int // incumbent winner (also the identity scratch)
	bestSpan  units.Time
	bestNodes int
	haveBest  bool

	// ans[d][c] is window job c's EarliestStart answer at the depth-d
	// node of the current branch (meaningful for jobs not in the
	// prefix).
	ans [][]machine.Placement

	stats SearchStats
}

// identity resizes the incumbent buffer to n and fills it with the
// identity order.
func (ps *permSearch) identity(n int) []int {
	if cap(ps.best) < n {
		ps.best = make([]int, n)
	}
	ps.best = ps.best[:n]
	for i := range ps.best {
		ps.best[i] = i
	}
	return ps.best
}

// begin readies the scratch buffers for a window of len(window) jobs.
// The incumbent starts empty (haveBest false): the DFS reaches the
// identity permutation first, which seeds it exactly as the exhaustive
// loop did.
func (ps *permSearch) begin(plan machine.Plan, window []*job.Job, now units.Time, utilFirst bool) {
	ps.plan, ps.window, ps.now, ps.utilFirst = plan, window, now, utilFirst
	ps.n = len(window)
	if cap(ps.perm) < ps.n {
		ps.perm = make([]int, ps.n)
	}
	ps.perm = ps.perm[:ps.n]
	ps.used = 0
	ps.haveBest = false
	for c, j := range window {
		ps.twins[c] = 0
		for k, o := range window[:c] {
			if o.Nodes == j.Nodes && o.Walltime == j.Walltime {
				ps.twins[c] |= 1 << k
			}
		}
	}
	if len(ps.ans) < ps.n {
		rows := make([]machine.Placement, ps.n*ps.n)
		ps.ans = make([][]machine.Placement, ps.n)
		for d := range ps.ans {
			ps.ans[d] = rows[d*ps.n : (d+1)*ps.n]
		}
	}
}

// run searches the window readied by begin, leaving the winner in
// ps.best: it fills the root's answers, takes the priority order when
// every job starts now in it, and searches otherwise.
func (ps *permSearch) run() {
	ps.fill(0, 0)
	if !ps.allStartNow() {
		ps.dfs(0, ps.now, 0, 0)
	}
	ps.plan, ps.window = nil, nil // do not retain the pass's plan
}

// better reports whether a complete schedule beats the incumbent under
// the configured objective.
func (ps *permSearch) better(span units.Time, nodes int) bool {
	if ps.utilFirst {
		return nodes > ps.bestNodes || (nodes == ps.bestNodes && span < ps.bestSpan)
	}
	return span < ps.bestSpan || (span == ps.bestSpan && nodes > ps.bestNodes)
}

// pruned reports whether no completion of a prefix can strictly beat
// the incumbent, given a lower bound on the completed schedule's
// makespan (spanLB) and an upper bound on nodes it can still put to
// work immediately beyond those already started (moreNow). Both bounds
// are exact — never optimistic about the incumbent — so cutting here
// never changes the winner.
func (ps *permSearch) pruned(spanLB units.Time, nodesNow, moreNow int) bool {
	maxNodes := nodesNow + moreNow
	if ps.utilFirst {
		return maxNodes < ps.bestNodes ||
			(maxNodes == ps.bestNodes && spanLB >= ps.bestSpan)
	}
	return spanLB > ps.bestSpan ||
		(spanLB == ps.bestSpan && maxNodes <= ps.bestNodes)
}

// fill computes the answers of the node at depth for every job outside
// the prefix. The jobs in inherit (a bitmask of window indices) have
// answers independent of the placement just committed, so they keep
// the parent's (Plan.Independent's contract); the rest are probed, once
// per (nodes, walltime) shape.
func (ps *permSearch) fill(depth int, inherit uint) {
	cur := ps.ans[depth]
	for c := 0; c < ps.n; c++ {
		if ps.used&(1<<c) != 0 {
			continue
		}
		if inherit&(1<<c) != 0 {
			cur[c] = ps.ans[depth-1][c]
			ps.stats.Inherited++
			continue
		}
		j := ps.window[c]
		probed := false
		for k := 0; k < c; k++ {
			// Same shape, same answer: an earlier job of this shape at
			// this node was inherited or probed alike.
			if ps.used&(1<<k) == 0 && cur[k].Nodes == j.Nodes && cur[k].Walltime == j.Walltime {
				cur[c], probed = cur[k], true
				break
			}
		}
		if !probed {
			ts, hint := ps.plan.EarliestStart(j.Nodes, j.Walltime)
			cur[c] = machine.Placement{Nodes: j.Nodes, Start: ts, Walltime: j.Walltime, Hint: hint}
			ps.stats.Probes++
		}
	}
}

// allStartNow reports whether every window job starts immediately when
// the window is placed in priority order. The root's answers (ps.ans[0])
// must be filled: unless all of them are now, it cannot, and the check
// costs nothing. Otherwise the first job takes its root answer and the
// rest are placed in turn, each by one StartableNow probe.
func (ps *permSearch) allStartNow() bool {
	root := ps.ans[0][:ps.n]
	for _, a := range root {
		if a.Start != ps.now {
			return false
		}
	}
	mark := ps.plan.Save()
	ok := true
	for c, j := range ps.window {
		hint := root[c].Hint
		if c > 0 {
			ps.stats.Probes++
			if hint, ok = ps.plan.StartableNow(j.Nodes, j.Walltime); !ok {
				break
			}
		}
		if c < ps.n-1 {
			ps.plan.Commit(j.Nodes, ps.now, j.Walltime, hint)
		}
	}
	ps.plan.Restore(mark)
	return ok
}

// capSlack returns how much the plan's free capacity at now tightens a
// node's bound on the nodes its unplaced jobs can still start now. That
// bound is nowSum, the nodes of the jobs startable now at the node (ans
// are its answers): no other job starts now anywhere below. For each
// request size s among those jobs, the ones of at least s nodes that do
// start now all hold capacity at now side by side, at most FreeNow(s);
// so the smaller ones' nodes plus min(the larger ones' nodes,
// FreeNow(s)) bound it too. The slack is nowSum minus the least of
// these bounds.
func (ps *permSearch) capSlack(ans []machine.Placement) int {
	var startable uint
	nowSum := 0
	for c := 0; c < ps.n; c++ {
		if ps.used&(1<<c) == 0 && ans[c].Start == ps.now {
			startable |= 1 << c
			nowSum += ans[c].Nodes
		}
	}
	bound := nowSum
	for rest := startable; rest != 0; rest &= rest - 1 {
		c := bits.TrailingZeros(rest)
		size := ans[c].Nodes
		small, large, repeat := 0, 0, false
		for m := startable; m != 0; m &= m - 1 {
			k := bits.TrailingZeros(m)
			if nodes := ans[k].Nodes; nodes < size {
				small += nodes
			} else {
				large += nodes
				repeat = repeat || (k < c && nodes == size)
			}
		}
		if !repeat && small < bound {
			bound = min(bound, small+min(large, ps.plan.FreeNow(size)))
		}
	}
	return nowSum - bound
}

// cut reports whether a prefix is pruned (see pruned), where more is
// the nodes its unplaced jobs startable now could add, and that bound
// is tightened by the node's capacity slack (capSlack of its answers
// ans) when it decides the cut. slack caches the node's slack, -1
// until first needed.
func (ps *permSearch) cut(spanLB units.Time, nodes, more int, ans []machine.Placement, slack *int) bool {
	if ps.pruned(spanLB, nodes, more) {
		return true
	}
	if *slack == 0 || !ps.pruned(spanLB, nodes, 0) {
		return false // no tightening of more can cut
	}
	if *slack < 0 {
		*slack = ps.capSlack(ans)
	}
	if *slack == 0 || !ps.pruned(spanLB, nodes, more-*slack) {
		return false
	}
	ps.stats.CapCuts++
	return true
}

// dfs extends the committed prefix perm[:depth] with every unused
// window job in increasing index order — lexicographic enumeration, so
// ties keep the earliest (priority-order) permutation. The node's
// answers are ps.ans[depth], filled by the caller.
//
// Three node-level bounds sharpen the cut beyond the prefix's own
// makespan, all consequences of probe monotonicity (commitments only
// accumulate along a branch, so EarliestStart answers only move later
// and free capacity only shrinks):
//
//   - maxEnd: every unplaced job's completion in any descendant is at
//     least its (probe start + walltime) here, so the largest such end
//     lower-bounds the completed schedule's makespan.
//   - nowSum: a job whose probe here is already past now can never
//     start immediately deeper in this subtree, so only jobs startable
//     now at this node bound the remaining immediate-start nodes —
//     much tighter than the full unplaced node sum.
//   - capacity: the startable jobs of at least a given size that do
//     start now fit the plan's free capacity at now together, which
//     caps nowSum when they compete for the same few free units
//     (capSlack; computed only when it can decide a cut).
//
// sleep is the node's sleep set (Godefroid 1996), a bitmask of window
// indices. Two jobs with independent answers commute: either order
// commits the same two placements. Once this node's child via a has
// been taken, cut or skipped, a sleeps in each later sibling's subtree
// for as long as every job placed there is independent of it, and a
// sleeping job is not expanded: that order has an equivalent with a
// moved ahead, which is lexicographically smaller.
//
// Twins, two jobs of one (nodes, walltime) shape, swap freely: either
// order places the same shapes at the same points. So a child whose
// job has an unplaced lower-index twin is skipped — the order with the
// twin placed here instead is equivalent and lexicographically smaller.
//
// Either way the smallest order of every equivalence class is searched,
// and with it the lexicographically first optimal order, the winner
// (DESIGN.md §7).
func (ps *permSearch) dfs(depth int, span units.Time, nodesNow int, sleep uint) {
	ps.stats.Nodes++
	ans := ps.ans[depth]
	maxEnd := span
	nowSum := 0
	for c := 0; c < ps.n; c++ {
		if ps.used&(1<<c) != 0 || ans[c].Start == units.Forever {
			continue
		}
		if end := ans[c].End(); end > maxEnd {
			maxEnd = end
		}
		if ans[c].Start == ps.now {
			nowSum += ans[c].Nodes
		}
	}
	slack := -1 // capSlack(ans), computed on first need
	if ps.haveBest && ps.cut(maxEnd, nodesNow, nowSum, ans, &slack) {
		return
	}
	last := depth == ps.n-1
	var taken uint // children of this node already taken, cut or skipped
	for c := 0; c < ps.n; c++ {
		if ps.used&(1<<c) != 0 {
			continue
		}
		if sleep&(1<<c) != 0 {
			ps.stats.Asleep++
			continue
		}
		if ps.twins[c]&^ps.used != 0 {
			ps.stats.Twins++
			taken |= 1 << c
			continue
		}
		a := ans[c]
		childSpan, childNodes, childNowSum := span, nodesNow, nowSum
		if a.Start != units.Forever {
			if end := a.End(); end > childSpan {
				childSpan = end
			}
			if a.Start == ps.now {
				childNodes += a.Nodes
				childNowSum -= a.Nodes
			}
		}
		ps.perm[depth] = c
		if last {
			// Leaf: the final placement's contribution is fully known
			// from the probe; no commit needed to evaluate it.
			if !ps.haveBest || ps.better(childSpan, childNodes) {
				ps.haveBest = true
				ps.bestSpan, ps.bestNodes = childSpan, childNodes
				copy(ps.best, ps.perm)
			}
			continue
		}
		// maxEnd stays a valid makespan lower bound for the child: the
		// placed job's own end is already inside childSpan, and every
		// other unplaced job only probes later below. The node's slack
		// holds for the child too: its subtree is part of this one's.
		childLB := childSpan
		if maxEnd > childLB {
			childLB = maxEnd
		}
		if ps.haveBest && ps.cut(childLB, childNodes, childNowSum, ans, &slack) {
			taken |= 1 << c
			continue
		}
		// The jobs whose answers commute with a's: the child inherits
		// their answers, and those already taken here sleep below.
		var indep uint
		for z := 0; z < ps.n; z++ {
			if ps.used&(1<<z) == 0 && z != c && ps.plan.Independent(ans[z], a) {
				indep |= 1 << z
			}
		}
		ps.used |= 1 << c
		mark := ps.plan.Save()
		if a.Start != units.Forever {
			// A job that never fits is placed nowhere, contributing
			// nothing — the same skip as the exhaustive evaluator.
			ps.plan.Commit(a.Nodes, a.Start, a.Walltime, a.Hint)
		}
		ps.fill(depth+1, indep)
		ps.dfs(depth+1, childSpan, childNodes, (sleep|taken)&indep)
		ps.plan.Restore(mark)
		ps.used &^= 1 << c
		taken |= 1 << c
	}
}
