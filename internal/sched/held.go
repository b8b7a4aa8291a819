package sched

import (
	"math"
	"slices"

	"amjs/internal/invariant"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// HeldPass is the backfilling pass EASY, conservative backfilling and
// the metric-aware policy (package core) run. The ranked queue is
// placed in windows of W jobs, each in the caller's search order: a job
// runs now if it fits, otherwise it is blocked. The first blocked job
// gets the protected reservation, which it keeps across passes until it
// starts (the EASY guarantee); later windows only backfill. With
// Conservative set, every blocked job is reserved instead, afresh each
// pass. At W = 1 over submission order this is EASY, or conservative
// backfilling: under FCFS the held reservation is the one Reserving
// re-derives each pass, but not under orders that can rank a later job
// ahead of the held one, which is why those stay on Reserving.
type HeldPass struct {
	// Conservative switches from the EASY guarantee to conservative
	// backfilling.
	Conservative bool

	// PermOrderReservation grants the protected reservation to the first
	// blocked job in *permutation* order, interleaved with the window's
	// starts, as a literal reading of the paper's Step 5 suggests. The
	// default (false) places reservations after the window's starts and
	// grants protection to the highest-priority blocked job — consistent
	// with how EASY picks its protected job, and measurably fairer (see
	// the ablation bench).
	PermOrderReservation bool

	// reservedID is the job holding the protected reservation (0 =
	// none). It is re-committed at the head of every pass until the job
	// starts, so window reordering can delay a blocked job at most once,
	// which bounds the unfairness cost of W > 1 (the paper's Table II).
	// reservedStart is the instant last promised to it, which the
	// invariant checker audits.
	reservedID    int
	reservedStart units.Time

	// last is the report on the last pass (see PassReport):
	//   - Horizon: every started job, every committed reservation, every
	//     job up to the last acted-on window and the ranking's anchors.
	//   - Quiescent: nothing started. Conservative passes claim it only
	//     under a clock-free ranking or on the no-fit fast path, because
	//     their reservations follow the priority order.
	//   - Mutated: the protected reservation was granted, released or
	//     moved; a refreshed reservedStart feeds no decision.
	//   - Untuned: the pass returned before the ranking (empty queue,
	//     no-fit fast path, one-start exit), so it read neither the
	//     ranking nor W. Conservative passes never claim it: no Tuner
	//     wraps a conservative policy.
	last PassReport

	blocked []*job.Job // the window's blocked jobs, pass-local scratch
}

// Ranking orders a pass's queue, most urgent first; sorted may be
// scratch the ranking owns, which the pass does not modify. anchors is
// the latest submit time among the jobs the scores were normalised
// against (math.MinInt64 for none): a submit-prefix that keeps them
// ranks as a prefix of sorted. clockFree reports that the order of a
// fixed queue does not move with the clock.
type Ranking func(now units.Time, queue []*job.Job, paranoid bool) (sorted []*job.Job, anchors units.Time, clockFree bool)

// WindowSearch returns the order, as indices into window, in which the
// pass places a window with two or more jobs startable now (every
// window under PermOrderReservation). The result may be scratch.
type WindowSearch func(plan machine.Plan, window []*job.Job, now units.Time, paranoid bool) []int

// ProtectedReservation implements invariant.ReservationHolder.
// Conservative mode keeps no protection across passes.
func (p *HeldPass) ProtectedReservation() (jobID int, start units.Time, held bool) {
	if p.Conservative || p.reservedID == 0 {
		return 0, 0, false
	}
	return p.reservedID, p.reservedStart, true
}

// LastPass implements PassReporter. Every pass is Bounded.
func (p *HeldPass) LastPass() PassReport { return p.last }

// CopyInto copies the pass's configuration and protected reservation
// into dst, which keeps its own scratch: a clone's share of the pass.
func (p *HeldPass) CopyInto(dst *HeldPass) {
	blocked := dst.blocked
	*dst = *p
	dst.blocked = blocked[:0]
}

// Run makes one pass over the queue ranked by rank, in windows of w
// jobs. A nil search places every window in priority order. Neither
// hook may retain the plan.
func (p *HeldPass) Run(env Env, w int, rank Ranking, search WindowSearch) {
	p.last = PassReport{Bounded: true, Quiescent: true}
	entryReserved := p.reservedID
	defer func() { p.last.Mutated = p.reservedID != entryReserved }()
	queue := env.Queue()
	if len(queue) == 0 {
		p.last.Untuned = !p.Conservative
		return
	}
	now := env.Now()
	pe, ok := env.(InvariantChecker)
	paranoid := ok && pe.InvariantChecking()

	// No-fit fast path: with no queued job fitting the idle node count
	// no start can succeed, so the pass could at most move reservation
	// state — and it cannot when conservative mode keeps none or the
	// EASY holder is still queued (re-committing it writes only the
	// pass-local plan). On a saturated machine, most passes of a nested
	// fairness run, a pass is this one scan of the queue. The scan also
	// finds the holder; a cancelled one is not found and loses
	// protection.
	var holder *job.Job
	if p.Conservative || p.reservedID != 0 {
		idle := env.Machine().IdleNodes()
		fits := false
		for _, j := range queue {
			if j.ID == p.reservedID {
				holder = j
			}
			fits = fits || j.Nodes <= idle
			if fits && (holder != nil || p.reservedID == 0) {
				break
			}
		}
		if !fits && (p.Conservative || holder != nil) {
			// The verdict holds on every queue subset that keeps the
			// holder, the one job the horizon must pin.
			if holder != nil {
				p.last.Horizon = holder.Submit
			}
			p.last.Untuned = !p.Conservative
			return
		}
	}

	plan := env.Machine().Plan(now)

	// Re-commit the protected reservation first, so nothing scheduled
	// this pass can delay it; its earliest start can only improve (jobs
	// never outlive their walltimes).
	reserved := false
	acted := -1
	if holder != nil {
		p.last.Horizon = max(p.last.Horizon, holder.Submit)
		if ts, hint := plan.EarliestStart(holder.Nodes, holder.Walltime); ts == now {
			// The promise is due: protection lapses and the job competes
			// in the windows. The validity oracle is told, so a later
			// re-grant is not read as a delay.
			if lo, ok := env.(invariant.LapseObserver); ok {
				lo.ReservationLapsed(holder.ID)
			}
		} else if ts != units.Forever {
			plan.Commit(holder.Nodes, ts, holder.Walltime, hint)
			reserved = true
			p.reservedStart = ts
		}
	}
	if !reserved {
		p.reservedID = 0
	}

	// One-start exit: with the protection held and at most one job
	// startable, every window without that job takes the backfill skip,
	// and the one with it starts it at the hint StartableNow shares with
	// EarliestStart and reserves nothing; a start only removes space.
	// Whatever W and the ranking, the pass starts that job and nothing
	// else, and the outcome rests only on it and the holder.
	if reserved && !p.Conservative {
		n, j, hint := startableNow(env, plan, queue)
		if n < 2 {
			p.last.Untuned = true
			if n == 1 && env.StartAt(j, hint) {
				p.last.Quiescent = false
				p.last.Horizon = max(p.last.Horizon, j.Submit)
			}
			RecyclePlan(env.Machine(), plan)
			return
		}
	}

	sorted, anchors, clockFree := rank(now, queue, paranoid)
	if p.Conservative && !clockFree {
		// Reservations rebuilt in an order the clock moves can start a
		// job later on unchanged state.
		p.last.Quiescent = false
	}
	w = max(w, 1)
	blocked := p.blocked
	for pos := 0; pos < len(sorted); pos += w {
		end := min(pos+w, len(sorted))
		window := sorted[pos:end]

		startable, _, _ := startableNow(env, plan, window)
		if reserved && !p.Conservative && startable == 0 {
			continue // backfill regime: nothing to start or reserve
		}

		// With fewer than two jobs startable every order starts the same
		// job, if any, at the same place: starts only remove space, so
		// no other job becomes startable mid-window. Blocked jobs are
		// reserved in priority order below whatever the permutation, so
		// the search is skipped (perm-order reservation keeps it).
		var perm []int
		if search != nil && (p.PermOrderReservation || startable >= 2) {
			perm = search(plan, window, now, paranoid)
		}
		blocked = blocked[:0]
		for k := range window {
			j := window[k]
			if perm != nil {
				j = window[perm[k]]
			}
			ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
			if ts == units.Forever {
				continue // can never fit; screened by the engine, but stay safe
			}
			if ts == now {
				if env.StartAt(j, hint) {
					plan.Commit(j.Nodes, now, j.Walltime, hint)
					p.last.Quiescent = false
					acted = end
					if j.ID == p.reservedID {
						p.reservedID = 0
					}
				}
				continue
			}
			// Blocked. Perm-order mode reserves here, between starts.
			if !p.PermOrderReservation {
				blocked = append(blocked, j)
				continue
			}
			if p.Conservative || !reserved {
				plan.Commit(j.Nodes, ts, j.Walltime, hint)
				acted = end
				reserved = true
				if !p.Conservative {
					p.reservedID = j.ID
					p.reservedStart = ts
				}
			}
		}
		// Default mode: reserve after the window's starts, in priority
		// order, so protection goes to the highest-priority blocked job.
		if !p.PermOrderReservation && len(blocked) > 0 && (p.Conservative || !reserved) {
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
				if !p.Conservative {
					p.reservedID = j.ID
					p.reservedStart = ts
					break
				}
			}
		}
	}

	p.blocked = blocked[:0]
	RecyclePlan(env.Machine(), plan)

	// Close the horizon. Windows past the last acted-on one committed
	// nothing, so a submit-prefix keeping the acted prefix and the
	// anchors acts the same. A pass that acted nowhere needs no anchors:
	// no reordering of a sub-queue conjures a start from the same plan.
	if acted > 0 {
		p.last.Horizon = max(p.last.Horizon, anchors)
		for _, j := range sorted[:acted] {
			p.last.Horizon = max(p.last.Horizon, j.Submit)
		}
	}
}

// startableNow counts the jobs startable now under the plan, stopping
// at two, and returns the first with its StartableNow hint. A request
// over the idle count is rejected before the costlier plan probe.
func startableNow(env Env, plan machine.Plan, jobs []*job.Job) (n int, first *job.Job, hint int) {
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

// FCFSBackfill is FCFS with EASY or conservative backfilling: the held
// pass at W = 1 over submission order.
type FCFSBackfill struct {
	pass  HeldPass
	order []*job.Job // the queue in submission order, pass scratch
}

// NewEASY returns EASY backfilling over FCFS order — the prevailing
// production default the paper uses as its baseline.
func NewEASY() *FCFSBackfill { return &FCFSBackfill{} }

// NewConservative returns conservative backfilling over FCFS order.
func NewConservative() *FCFSBackfill {
	return &FCFSBackfill{pass: HeldPass{Conservative: true}}
}

// Name implements Scheduler.
func (b *FCFSBackfill) Name() string {
	if b.pass.Conservative {
		return "conservative-fcfs"
	}
	return "easy-fcfs"
}

// Clone implements Scheduler.
func (b *FCFSBackfill) Clone() Scheduler { return b.CloneInto(nil) }

// CloneInto is Clone into a retired instance, which keeps its own
// scratch; a nil or mistyped dst gets a fresh clone.
func (b *FCFSBackfill) CloneInto(dst Scheduler) Scheduler {
	d, ok := dst.(*FCFSBackfill)
	if !ok || d == nil || d == b {
		d = new(FCFSBackfill)
	}
	b.pass.CopyInto(&d.pass)
	return d
}

// LastPass implements PassReporter.
func (b *FCFSBackfill) LastPass() PassReport { return b.pass.LastPass() }

// ProtectedReservation implements invariant.ReservationHolder.
func (b *FCFSBackfill) ProtectedReservation() (jobID int, start units.Time, held bool) {
	return b.pass.ProtectedReservation()
}

// Schedule implements Scheduler.
func (b *FCFSBackfill) Schedule(env Env) { b.pass.Run(env, 1, b.submitOrder, nil) }

// submitOrder is the pass's Ranking: the queue sorted by (submit, ID)
// into the reused buffer. The engine's queue is usually in that order,
// which the sort finds in one scan, but a live daemon's need not be.
func (b *FCFSBackfill) submitOrder(_ units.Time, queue []*job.Job, _ bool) ([]*job.Job, units.Time, bool) {
	b.order = append(b.order[:0], queue...)
	slices.SortFunc(b.order, func(x, y *job.Job) int { return ComparePriority(0, x, 0, y) })
	return b.order, math.MinInt64, true
}
