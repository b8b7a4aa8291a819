package core

import (
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// maxPermWindow bounds the window permutation search. The paper
// evaluates W up to 5; the bound is set two higher so the adaptive
// tuner and sweep tools have headroom to explore past the paper's grid.
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
// prefix and the unplaced jobs' node sum caps further immediate starts
// — and the DFS visits permutations in lexicographic order updating
// only on strict improvement, so the winner is identical to the seed's
// exhaustive next-permutation loop (cross-checked by the oracle test in
// metricaware_oracle_test.go).
//
// Orders that differ only by swapping independent jobs are searched
// once (see dfs): a child reuses its parent's answer for every job
// independent of the one just committed, and a sleep set keeps only the
// lower-index-first order of two independent jobs. Both reductions are
// exact. The returned slice is scratch, valid until the next call on
// this scheduler.
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

	// Shortcut: if every window job starts immediately in priority
	// order, no permutation can start more nodes or finish earlier.
	mark := plan.Save()
	allNow := true
	for _, j := range window {
		ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
		if ts != now {
			allNow = false
			break
		}
		plan.Commit(j.Nodes, ts, j.Walltime, hint)
	}
	plan.Restore(mark)
	if allNow {
		return identity
	}

	ps.begin(plan, window, now, s.UtilizationFirst)
	ps.fill(0, 0)
	ps.dfs(0, now, 0, 0)
	ps.plan, ps.window = nil, nil // do not retain the pass's plan
	return ps.best
}

// SearchStats counts the window search's work since the scheduler's
// search scratch was created.
type SearchStats struct {
	Nodes     int64 // search-tree nodes expanded (leaves excluded)
	Asleep    int64 // children skipped because a sibling order covers them
	Inherited int64 // answers a child took over from its parent
	Probes    int64 // EarliestStart calls the search made
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
	if len(ps.ans) < ps.n {
		rows := make([]machine.Placement, ps.n*ps.n)
		ps.ans = make([][]machine.Placement, ps.n)
		for d := range ps.ans {
			ps.ans[d] = rows[d*ps.n : (d+1)*ps.n]
		}
	}
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

// dfs extends the committed prefix perm[:depth] with every unused
// window job in increasing index order — lexicographic enumeration, so
// ties keep the earliest (priority-order) permutation. The node's
// answers are ps.ans[depth], filled by the caller.
//
// Two node-level bounds sharpen the cut beyond the prefix's own
// makespan, both consequences of probe monotonicity (commitments only
// accumulate along a branch, so EarliestStart answers only move later):
//
//   - maxEnd: every unplaced job's completion in any descendant is at
//     least its (probe start + walltime) here, so the largest such end
//     lower-bounds the completed schedule's makespan.
//   - nowSum: a job whose probe here is already past now can never
//     start immediately deeper in this subtree, so only jobs startable
//     now at this node bound the remaining immediate-start nodes —
//     much tighter than the full unplaced node sum.
//
// sleep is the node's sleep set (Godefroid 1996), a bitmask of window
// indices. Two jobs with independent answers commute: either order
// commits the same two placements. Once this node's child via a has
// been taken or cut, a sleeps in each later sibling's subtree for as
// long as every job placed there is independent of it, and a sleeping
// job is not expanded: that order has an equivalent with a moved
// ahead, which is lexicographically smaller. The smallest order of
// every equivalence class is therefore searched, and with it the
// lexicographically first optimal order, the winner (DESIGN.md §7).
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
	if ps.haveBest && ps.pruned(maxEnd, nodesNow, nowSum) {
		return
	}
	last := depth == ps.n-1
	var taken uint // children of this node already taken or cut
	for c := 0; c < ps.n; c++ {
		if ps.used&(1<<c) != 0 {
			continue
		}
		if sleep&(1<<c) != 0 {
			ps.stats.Asleep++
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
		// other unplaced job only probes later below.
		childLB := childSpan
		if maxEnd > childLB {
			childLB = maxEnd
		}
		if ps.haveBest && ps.pruned(childLB, childNodes, childNowSum) {
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
