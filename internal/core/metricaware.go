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
	//
	// Untuned: true on the three paths that return before the ranking —
	// the empty queue, the no-fit fast path and the one-start exit after
	// the reservation re-commit, which starts the lone startable job if
	// there is one. None of them reads BF or W, so every clone differing
	// only in those takes the same path from the same state.
	// Conservative passes never claim it: no Tuner wraps a conservative
	// policy, so the claim would have no reader, and the what-if prefix
	// sharing that reads it stays confined to the one-reservation
	// regime.
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
		s.last.Untuned = !s.Conservative
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
	// per queued job. It reads neither BF nor W, so an EASY pass that
	// takes it is reported Untuned.
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
			s.last.Untuned = !s.Conservative
			return
		}
	}

	plan := env.Machine().Plan(now)

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

	// One-start exit: with the protection held and at most one queued job
	// startable against the plan, the pass's outcome is fixed before any
	// ranking. Every window without that job takes the backfill skip
	// (nothing fits now, and the one reservation is already placed). The
	// window holding it starts it in every order, at the hint
	// StartableNow shares with EarliestStart, and places no reservation;
	// the start only removes space, so no later window gains a startable
	// job. Whatever BF, W and the ranking, the pass starts that job there
	// and nothing else, so returning before the ranking makes it one plan
	// probe per job that fits the idle count — and the outcome rests only
	// on the holder and the started job being queued.
	if reserved && !s.Conservative {
		n, j, hint := startableNow(env, plan, queue)
		if n < 2 {
			s.last.Untuned = true
			if n == 1 && env.StartAt(j, hint) {
				s.last.Quiescent = false
				s.last.Horizon = max(s.last.Horizon, j.Submit)
			}
			recyclePlan(env.Machine(), plan)
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
	w := s.W
	if w < 1 {
		w = 1
	}
	for pos := 0; pos < len(sorted); pos += w {
		end := pos + w
		if end > len(sorted) {
			end = len(sorted)
		}
		window := sorted[pos:end]

		startable, _, _ := startableNow(env, plan, window)
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
	recyclePlan(env.Machine(), plan)

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

// recyclePlan hands a finished pass's plan back to the machine's pool
// when the machine keeps one (see machine.PlanRecycler).
func recyclePlan(m machine.Machine, pl machine.Plan) {
	if r, ok := m.(machine.PlanRecycler); ok {
		r.Recycle(pl)
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
