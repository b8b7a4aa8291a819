package core

import (
	"fmt"
	"slices"
	"strings"

	"amjs/internal/invariant"
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

// MetricAware is the paper's metric-aware scheduler (§III-B):
//
//	Steps 1–4  Queued jobs are scored by ScoreWait and ScoreRuntime and
//	           sorted by the balanced priority S_p = BF*S_w + (1-BF)*S_r
//	           (or by any weighted Scorer set; see NewMultiMetric).
//	Step 5     The sorted queue is processed in windows of W jobs. Every
//	           permutation of a window is placed (greedily: run now if
//	           possible, otherwise reserve the earliest feasible slot)
//	           against the machine plan; the permutation with the least
//	           makespan wins, ties favouring more immediate starts and
//	           then priority order.
//	Step 6     Reservations are kept only for the first window that
//	           contains a blocked job (the EASY-style guarantee: those
//	           reservations are never delayed by backfilling). Later
//	           windows degenerate to a backfill pass: their jobs start
//	           only if they fit now under the outstanding commitments.
//	           With Conservative set, every blocked job keeps its
//	           reservation instead (conservative backfilling).
//
// BF=1, W=1 reproduces FCFS with EASY backfilling exactly — the paper's
// baseline — which the test suite pins against the independent
// sched.NewEASY implementation.
type MetricAware struct {
	// BF is the balance factor in [0,1]: 1 ≈ FCFS (fairness), 0 ≈ SJF
	// (efficiency).
	BF float64

	// W is the allocation window size (>= 1).
	W int

	// Conservative switches Step 6 from the EASY guarantee to
	// conservative backfilling.
	Conservative bool

	// UtilizationFirst switches the window objective from the paper's
	// literal "least makespan" (with immediate utilization as the tie
	// break) to "most nodes started now" (with makespan as the tie
	// break). See the ablation bench; the default (false) is the
	// paper-literal objective.
	UtilizationFirst bool

	// PermOrderReservation grants the protected reservation to the first
	// blocked job in *permutation* order, interleaved with the window's
	// starts, as a literal reading of Step 5 suggests. The default
	// (false) places reservations after the window's starts and grants
	// protection to the highest-priority blocked job — consistent with
	// how EASY picks its protected job, and measurably fairer (see the
	// ablation bench).
	PermOrderReservation bool

	// SearchWorkers is ignored: the window search is serial (DESIGN.md
	// §7). The field remains only because the frozen benchmarks/ tree
	// still assigns it; the next benchmark PR removes both.
	SearchWorkers int

	// reservedID is the job currently holding the protected reservation
	// (0 = none). Protection persists across scheduling passes: once a
	// blocked job is granted the reservation it is re-committed at the
	// head of every subsequent pass until the job starts, so window
	// reordering can delay a blocked job at most once — which keeps the
	// unfairness cost of W > 1 bounded, as in the paper's Table II.
	reservedID int

	// reservedStart is the start instant committed for reservedID's
	// protected reservation in the pass that last (re-)granted it —
	// the promise the invariant checker audits (meaningful only while
	// reservedID != 0).
	reservedStart units.Time

	// verifyCount sequences the paranoid window-search verification's
	// sampling of large windows (see shouldVerifyWindow).
	verifyCount int

	// last is the report on the last pass (sched.PassReporter).
	//
	// Horizon and Bounded: the submit-time horizon of the pass's
	// outcome. Every started job, every reservation the pass committed,
	// every job in a window up to and including the last acted-on
	// window, and the earliest holders of the scoring features' queue
	// anchors (prioScratch.aggHorizon) contribute their submit times; a
	// pass whose outcome provably reached no deeper than H behaves
	// identically on any submit-prefix of the queue that extends to H.
	//
	// Quiescent: true when the pass started nothing, so repeating it on
	// unchanged state at any later instant is provably the same no-op
	// (every plan instant is absolute and the earliest of them is
	// preceded by an end event; see the field's contract). Conservative
	// passes claim it only under a clock-free ranking or on the no-fit
	// fast path: their reservations follow the priority order.
	//
	// Mutated: true when the pass granted, released, or moved the
	// persistent protected reservation — the only scheduler state that
	// survives a pass and feeds later decisions. reservedStart refreshes,
	// verifyCount and the report itself are excluded: no scheduling
	// decision ever reads them, and Schedule overwrites the report at
	// entry.
	last sched.PassReport

	// scorers ranks the queue when non-nil (NewMultiMetric); nil means
	// Eq. (3) over the live BF, which the Tuner writes.
	scorers []Scorer

	// search and prio are the reusable scratch state of the
	// branch-and-bound window search and the priority scoring pass —
	// buffers only, not configuration. Clone and CloneInto never copy
	// them, so two scheduler instances never share scratch (experiment
	// runs and the engine's fairness worlds run clones concurrently with
	// their source).
	search     *permSearch
	prio       *prioScratch
	blockedBuf []*job.Job
}

// NewMetricAware returns a metric-aware scheduler with the given balance
// factor and window size. It panics on out-of-range parameters, which
// are configuration errors.
func NewMetricAware(bf float64, w int) *MetricAware {
	if bf < 0 || bf > 1 {
		panic(fmt.Sprintf("core: balance factor %v outside [0,1]", bf))
	}
	if w < 1 {
		panic(fmt.Sprintf("core: window size %d < 1", w))
	}
	return &MetricAware{BF: bf, W: w}
}

// Name implements sched.Scheduler.
func (s *MetricAware) Name() string {
	suffix := ""
	if s.Conservative {
		suffix = ",conservative"
	}
	if s.scorers != nil {
		terms := make([]string, len(s.scorers))
		for i, sc := range s.scorers {
			terms[i] = fmt.Sprintf("%s:%g", sc.Name, sc.Weight)
		}
		return fmt.Sprintf("multi-metric(%s,w=%d%s)", strings.Join(terms, ","), s.W, suffix)
	}
	return fmt.Sprintf("metric-aware(bf=%g,w=%d%s)", s.BF, s.W, suffix)
}

// Clone implements sched.Scheduler.
func (s *MetricAware) Clone() sched.Scheduler { return s.CloneInto(nil) }

// CloneInto is Clone into a retired instance: when dst is a
// *MetricAware no longer in use, s's configuration and state are copied
// into it and dst keeps its own scratch buffers, so a hot clone-per-fork
// loop (the engine's fairness and what-if worlds) allocates nothing
// after warm-up; otherwise a fresh clone is allocated. Either way the
// result shares no scratch with s.
func (s *MetricAware) CloneInto(dst sched.Scheduler) sched.Scheduler {
	d, ok := dst.(*MetricAware)
	if !ok || d == nil || d == s {
		d = new(MetricAware)
	}
	search, prio, blocked := d.search, d.prio, d.blockedBuf
	*d = *s
	d.search, d.prio, d.blockedBuf = search, prio, blocked
	return d
}

// AdoptScratch transplants the scoring and search buffers of a retired
// clone into this scheduler. The engine reuses retired instances through
// CloneInto instead; the benchmark's pass probe is the remaining
// caller. The donor must not be used again.
func (s *MetricAware) AdoptScratch(from sched.Scheduler) {
	f, ok := from.(*MetricAware)
	if !ok || f == s {
		return
	}
	if s.search == nil {
		s.search, f.search = f.search, nil
	}
	if s.prio == nil {
		s.prio, f.prio = f.prio, nil
	}
	if s.blockedBuf == nil {
		s.blockedBuf, f.blockedBuf = f.blockedBuf, nil
	}
}

// Tunables reports the current policy parameters (recorded by the
// engine's checkpoint series and driven by the adaptive Tuner).
func (s *MetricAware) Tunables() (bf float64, w int) { return s.BF, s.W }

// ProtectedReservation implements invariant.ReservationHolder: the job
// currently holding the persistent EASY reservation and the start
// instant promised to it. Conservative mode keeps no persistent
// protection, so held is false there.
func (s *MetricAware) ProtectedReservation() (jobID int, start units.Time, held bool) {
	if s.Conservative || s.reservedID == 0 {
		return 0, 0, false
	}
	return s.reservedID, s.reservedStart, true
}

// LastPass implements sched.PassReporter; see the contracts on
// sched.PassReport. Every pass is Bounded: whatever the scorers, the
// ranking depends on the queue only through each job's own features and
// the feature anchors that prioScratch.aggHorizon covers. The protected
// reservation's holder is the only persistent decision input, so a pass
// mutated state exactly when reservedID changed.
func (s *MetricAware) LastPass() sched.PassReport { return s.last }

// Schedule implements sched.Scheduler.
func (s *MetricAware) Schedule(env sched.Env) {
	s.last = sched.PassReport{Bounded: true, Quiescent: true}
	entryReserved := s.reservedID
	defer func() { s.last.Mutated = s.reservedID != entryReserved }()
	queue := env.Queue()
	if len(queue) == 0 {
		return
	}
	now := env.Now()
	paranoid := false
	if pe, ok := env.(sched.InvariantChecker); ok {
		paranoid = pe.InvariantChecking()
	}

	// Fast path: a pass that provably changes nothing is skipped before
	// the plan is even built. No queued job fitting the idle node count
	// means no start can succeed (a start only consumes idle nodes), so
	// the pass could at most move reservation state — and it cannot
	// move that either when the scheduler keeps none across passes
	// (conservative mode) or when the EASY reservation is held by a
	// still-queued job: re-committing it probes and writes only the
	// pass-local plan, and with nothing startable every window takes
	// the backfill skip. On a saturated machine — most passes of a
	// nested fairness run — this reduces a pass to one integer compare
	// per queued job.
	if s.Conservative || s.reservedID != 0 {
		idle := env.Machine().IdleNodes()
		fits, held := false, false
		var heldSubmit units.Time
		for _, j := range queue {
			if j.Nodes <= idle {
				fits = true
				break
			}
			if j.ID == s.reservedID {
				held = true
				heldSubmit = j.Submit
			}
		}
		if !fits && (s.Conservative || held) {
			// The no-op verdict depends on every queued job fitting
			// nowhere (monotone under queue subsets) and, in EASY mode,
			// on the reserved job still being queued — the only job
			// whose presence the horizon must pin.
			s.last.Horizon = heldSubmit
			return
		}
	}

	scorers := s.scorers
	if scorers == nil {
		bf := balanced(s.BF)
		scorers = bf[:]
	}
	if s.Conservative && !clockFreeRanking(scorers) {
		// Conservative reservations are rebuilt every pass in priority
		// order, so a ranking the clock alone reorders can move a job
		// ahead of the reservation that blocked it and start it later
		// on unchanged state.
		s.last.Quiescent = false
	}
	if s.prio == nil {
		s.prio = &prioScratch{}
	}
	sorted := s.prio.prioritize(now, queue, scorers)
	aggHorizon := s.prio.aggHorizon
	if paranoid {
		// The order is repaired from the last pass's; paranoid runs
		// audit it against a fresh sort.
		if fresh := MultiPrioritize(now, queue, scorers); !slices.Equal(sorted, fresh) {
			panic(fmt.Sprintf("core: repaired queue order diverged from a fresh sort at %v", now))
		}
	}
	plan := env.Machine().Plan(now)
	w := s.W
	if w < 1 {
		w = 1
	}

	// Re-commit the persistent protected reservation first, so nothing
	// scheduled this pass can delay it. The fresh earliest start can
	// only improve on the one committed last pass (jobs never outlive
	// their walltimes). A holder that left the queue without starting
	// (a cancel) is not found, so protection is released here.
	reserved := false
	acted := -1
	blocked := s.blockedBuf
	if s.reservedID != 0 {
		held := false
		for _, j := range queue {
			if j.ID != s.reservedID {
				continue
			}
			// Whether re-committed, lapsed, or unplaceable, the verdict
			// hangs on this job's presence and plan probe.
			if j.Submit > s.last.Horizon {
				s.last.Horizon = j.Submit
			}
			if ts, hint := plan.EarliestStart(j.Nodes, j.Walltime); ts != units.Forever {
				if ts == now {
					// Startable this pass: the promise is due, protection
					// lapses, and the window loop handles the job in open
					// competition. Paranoid runs record the lapse so the
					// validity oracle can tell the subsequent re-grant
					// from an illegal reservation delay.
					if lo, ok := env.(invariant.LapseObserver); ok {
						lo.ReservationLapsed(j.ID)
					}
					break
				}
				plan.Commit(j.Nodes, ts, j.Walltime, hint)
				held = true
				s.reservedStart = ts
			}
			break
		}
		if held {
			reserved = true
		} else {
			s.reservedID = 0
		}
	}
	for pos := 0; pos < len(sorted); pos += w {
		end := pos + w
		if end > len(sorted) {
			end = len(sorted)
		}
		window := sorted[pos:end]

		startable := windowStartableNow(env, plan, window)
		if reserved && !s.Conservative && startable == 0 {
			// Backfill regime: without reservations to place, a window
			// in which nothing fits now cannot contribute.
			continue
		}

		var perm []int
		if !s.PermOrderReservation && startable < 2 {
			// The permutation is provably irrelevant, so the search is
			// skipped. With nothing startable, no order starts any job;
			// with exactly one startable job, every order starts exactly
			// that job with the same placement — starts are the only
			// commits the pass makes while walking the permutation, so
			// space never grows mid-window and no other job can become
			// startable, and the lone start's probe sees the untouched
			// window-entry plan in every order. Either way the blocked
			// jobs are probed and reserved in window (priority) order
			// below, independent of the permutation. (Perm-order
			// reservation mode consults the winning order for blocked
			// placement, so it keeps the search.) Saturated and
			// single-backfill passes — the bulk of a backlogged stretch
			// and of nested fairness runs — skip the branch-and-bound
			// entirely.
			if s.search == nil {
				s.search = &permSearch{}
			}
			perm = s.search.identity(len(window))
		} else {
			perm = s.bestPermutation(plan, window, now)
			// Paranoid runs cross-check the pruned search against the
			// exhaustive W! oracle on the same window-entry plan. Only
			// real searches are checked: the startable<2 identity fast
			// path above is execution-equivalent, not score-optimal.
			if paranoid && s.shouldVerifyWindow(len(window)) {
				if err := invariant.VerifyWindow(plan, window, now, perm, s.UtilizationFirst); err != nil {
					panic(err)
				}
			}
		}
		blocked = blocked[:0]
		for _, idx := range perm {
			j := window[idx]
			ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
			if ts == units.Forever {
				continue // can never fit; screened by the engine, but stay safe
			}
			if ts == now {
				if env.StartAt(j, hint) {
					plan.Commit(j.Nodes, now, j.Walltime, hint)
					s.last.Quiescent = false
					acted = end
					if j.ID == s.reservedID {
						s.reservedID = 0
					}
				}
				continue
			}
			// Blocked. In perm-order mode, reservations are committed
			// right here, interleaved with starts: exactly one protected
			// reservation as in EASY, or all of them in conservative
			// mode.
			if !s.PermOrderReservation {
				blocked = append(blocked, j)
				continue
			}
			if s.Conservative || !reserved {
				plan.Commit(j.Nodes, ts, j.Walltime, hint)
				acted = end
				reserved = true
				if !s.Conservative {
					s.reservedID = j.ID
					s.reservedStart = ts
				}
			}
		}
		// Default mode: place reservations after the window's starts, in
		// priority (not permutation) order, so protection goes to the
		// highest-priority blocked job.
		if !s.PermOrderReservation && len(blocked) > 0 && (s.Conservative || !reserved) {
			for _, j := range window {
				if !slices.Contains(blocked, j) {
					continue
				}
				ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
				if ts == units.Forever || ts == now {
					continue
				}
				plan.Commit(j.Nodes, ts, j.Walltime, hint)
				acted = end
				reserved = true
				if !s.Conservative {
					s.reservedID = j.ID
					s.reservedStart = ts
					break
				}
			}
		}
	}

	s.blockedBuf = blocked[:0]
	if r, ok := env.Machine().(machine.PlanRecycler); ok {
		r.Recycle(plan)
	}

	// Close the pass horizon (sched.PassReport). Windows past the last
	// acted-on one committed nothing — every job there probed blocked or
	// unplaceable against a plan no later window changes — so on any
	// submit-prefix retaining the acted prefix and the score anchors,
	// the rebuilt tail windows still act on nothing and the outcome is
	// identical. Pure no-op passes (acted < 0) need no anchors at all:
	// with no start and no reservation movement anywhere, no reordering
	// of a sub-queue can conjure one from the same plan.
	if acted > 0 {
		if aggHorizon > s.last.Horizon {
			s.last.Horizon = aggHorizon
		}
		for _, j := range sorted[:acted] {
			if j.Submit > s.last.Horizon {
				s.last.Horizon = j.Submit
			}
		}
	}
}

// windowVerifySampling thins the exhaustive window oracle on large
// windows: W! evaluation at W=6..7 costs three orders of magnitude more
// than the pruned search it audits, so paranoid runs check every small
// window but only every windowVerifySampling-th large one.
const windowVerifySampling = 7

// shouldVerifyWindow decides whether this paranoid pass's window search
// gets the exhaustive cross-check.
func (s *MetricAware) shouldVerifyWindow(n int) bool {
	if n <= 4 {
		return true
	}
	s.verifyCount++
	return s.verifyCount%windowVerifySampling == 0
}

// windowStartableNow counts the window's jobs that can start at this
// instant under the plan, capped at 2 — callers only distinguish
// none / exactly one / several. A start can only consume idle nodes,
// so a request exceeding the idle count is rejected before the (much
// more expensive) plan probe; when the machine is saturated every job
// short-circuits and the window costs a handful of integer compares.
func windowStartableNow(env sched.Env, plan machine.Plan, window []*job.Job) int {
	idle := env.Machine().IdleNodes()
	n := 0
	for _, j := range window {
		if j.Nodes > idle {
			continue
		}
		if _, ok := plan.StartableNow(j.Nodes, j.Walltime); ok {
			if n++; n == 2 {
				break
			}
		}
	}
	return n
}

// bestPermutation returns the winning window order (indices into
// window). The criterion is least makespan, then most immediate starts,
// then the earliest permutation in lexicographic order — which is the
// priority order, preserving fairness on ties.
//
// The search is branch-and-bound over permutation prefixes: each prefix
// is committed once into the shared plan (Save/Restore brackets the
// speculation, so nothing is cloned), a prefix whose bounds prove no
// completion can beat the incumbent is cut, and EarliestStart probes
// for identical (nodes, walltime) shapes are memoized across the
// siblings of each search-tree node. The pruning bounds are exact —
// makespan and immediate-start nodes grow monotonically along a prefix
// and the unplaced jobs' node sum caps further immediate starts — and
// the DFS visits permutations in lexicographic order updating only on
// strict improvement, so the winner is identical to the seed's
// exhaustive next-permutation loop (cross-checked by the oracle test in
// metricaware_oracle_test.go). The returned slice is scratch, valid
// until the next call on this scheduler.
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
	ps.dfs(0, now, 0)
	ps.plan, ps.window = nil, nil // do not retain the pass's plan
	return ps.best
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

	perm []int  // current prefix in perm[:depth]
	used []bool // window indices placed in the prefix

	best      []int // incumbent winner (also the identity scratch)
	bestSpan  units.Time
	bestNodes int
	haveBest  bool

	memo [][]probeEntry // per-depth sibling probe memo
}

// probeEntry caches one EarliestStart answer at a search-tree node:
// within a node the committed prefix is fixed, so two candidate jobs
// with the same (nodes, walltime) shape must probe identically.
type probeEntry struct {
	nodes int
	wall  units.Duration
	ts    units.Time
	hint  int
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
		ps.used = make([]bool, ps.n)
	}
	ps.perm = ps.perm[:ps.n]
	ps.used = ps.used[:ps.n]
	for i := range ps.used {
		ps.used[i] = false
	}
	ps.haveBest = false
	for len(ps.memo) < ps.n {
		ps.memo = append(ps.memo, nil)
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

// probe is EarliestStart memoized across the siblings of one
// search-tree node. The memo is only valid while the committed prefix
// is unchanged; dfs resets it on entry, and every Commit inside the
// loop is rewound before the next sibling probes.
func (ps *permSearch) probe(depth int, j *job.Job) (units.Time, int) {
	for _, e := range ps.memo[depth] {
		if e.nodes == j.Nodes && e.wall == j.Walltime {
			return e.ts, e.hint
		}
	}
	ts, hint := ps.plan.EarliestStart(j.Nodes, j.Walltime)
	ps.memo[depth] = append(ps.memo[depth], probeEntry{nodes: j.Nodes, wall: j.Walltime, ts: ts, hint: hint})
	return ts, hint
}

// dfs extends the committed prefix perm[:depth] with every unused
// window job in increasing index order — lexicographic enumeration, so
// ties keep the earliest (priority-order) permutation.
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
func (ps *permSearch) dfs(depth int, span units.Time, nodesNow int) {
	// Probe every unplaced candidate once at this node (the sibling
	// loop below hits the memo) and fold the node-level bounds.
	ps.memo[depth] = ps.memo[depth][:0]
	maxEnd := span
	nowSum := 0
	for c := 0; c < ps.n; c++ {
		if ps.used[c] {
			continue
		}
		j := ps.window[c]
		ts, _ := ps.probe(depth, j)
		if ts == units.Forever {
			continue
		}
		if end := ts.Add(j.Walltime); end > maxEnd {
			maxEnd = end
		}
		if ts == ps.now {
			nowSum += j.Nodes
		}
	}
	if ps.haveBest && ps.pruned(maxEnd, nodesNow, nowSum) {
		return
	}
	last := depth == ps.n-1
	for c := 0; c < ps.n; c++ {
		if ps.used[c] {
			continue
		}
		j := ps.window[c]
		ts, hint := ps.probe(depth, j)
		childSpan, childNodes, childNowSum := span, nodesNow, nowSum
		if ts != units.Forever {
			if end := ts.Add(j.Walltime); end > childSpan {
				childSpan = end
			}
			if ts == ps.now {
				childNodes += j.Nodes
				childNowSum -= j.Nodes
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
			continue
		}
		ps.used[c] = true
		if ts == units.Forever {
			// Never fits: placed nowhere, contributing nothing — the
			// same skip as the exhaustive evaluator.
			ps.dfs(depth+1, childSpan, childNodes)
		} else {
			mark := ps.plan.Save()
			ps.plan.Commit(j.Nodes, ts, j.Walltime, hint)
			ps.dfs(depth+1, childSpan, childNodes)
			ps.plan.Restore(mark)
		}
		ps.used[c] = false
	}
}
