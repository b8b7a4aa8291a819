package invariant

import (
	"fmt"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// maxVerifyWindow caps the exhaustive oracle at the engine's own window
// cap (7! = 5040 candidate orders).
const maxVerifyWindow = 7

// VerifyWindow re-runs the W! window search the slow, obvious way —
// every permutation, greedy placement on a plan clone, no pruning, no
// memoization — and checks that chosen is the lex-earliest optimum
// under the policy's criterion: least makespan then most immediate
// starts (or the reverse when utilFirst), ties broken by the earliest
// permutation in lexicographic (priority) order. plan must be in the
// state the scheduler's search saw (window entry, held reservation
// committed); it is cloned, never mutated.
func VerifyWindow(plan machine.Plan, window []*job.Job, now units.Time, chosen []int, utilFirst bool) error {
	n := len(window)
	if len(chosen) != n {
		return fmt.Errorf("invariant: %s: chosen order has %d entries for a %d-job window",
			InvWindow, len(chosen), n)
	}
	if n <= 1 {
		return nil
	}
	if n > maxVerifyWindow {
		return fmt.Errorf("invariant: %s: %d-job window exceeds the %d! oracle cap",
			InvWindow, n, maxVerifyWindow)
	}
	seen := make([]bool, n)
	for _, i := range chosen {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("invariant: %s: chosen order %v is not a permutation of 0..%d",
				InvWindow, chosen, n-1)
		}
		seen[i] = true
	}

	scratch := plan.Clone()
	eval := func(p []int) (units.Time, int) {
		mark := scratch.Save()
		span, nodes := now, 0
		for _, i := range p {
			j := window[i]
			ts, hint := scratch.EarliestStart(j.Nodes, j.Walltime)
			if ts == units.Forever {
				continue // never placeable under this prefix; skipped, not scheduled
			}
			if end := ts.Add(j.Walltime); end > span {
				span = end
			}
			if ts == now {
				nodes += j.Nodes
			}
			scratch.Commit(j.Nodes, ts, j.Walltime, hint)
		}
		scratch.Restore(mark)
		return span, nodes
	}

	// Exhaustive next-permutation sweep in lexicographic order, keeping
	// strict improvements only — so best is the lex-earliest optimum,
	// exactly the contract the engine's branch-and-bound search claims.
	perm := make([]int, n)
	best := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	copy(best, perm)
	bestSpan, bestNodes := eval(perm)
	for NextPermutation(perm) {
		span, nodes := eval(perm)
		better := span < bestSpan || (span == bestSpan && nodes > bestNodes)
		if utilFirst {
			better = nodes > bestNodes || (nodes == bestNodes && span < bestSpan)
		}
		if better {
			bestSpan, bestNodes = span, nodes
			copy(best, perm)
		}
	}

	chosenSpan, chosenNodes := eval(chosen)
	if chosenSpan != bestSpan || chosenNodes != bestNodes {
		return fmt.Errorf("invariant: %s: chosen order %v scores (span %d, now-nodes %d); order %v achieves (span %d, now-nodes %d)",
			InvWindow, chosen, int64(chosenSpan), chosenNodes, best, int64(bestSpan), bestNodes)
	}
	for i := range best {
		if chosen[i] != best[i] {
			return fmt.Errorf("invariant: %s: chosen order %v ties the optimum but is not the lex-earliest winner %v",
				InvWindow, chosen, best)
		}
	}
	return nil
}

// NextPermutation advances p to its lexicographic successor, returning
// false after the final (descending) permutation. The exhaustive
// oracles (VerifyWindow, and core's test-tree reference search) walk
// every window order with it; the audited branch-and-bound search
// enumerates prefixes by DFS and shares nothing with it.
func NextPermutation(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}
