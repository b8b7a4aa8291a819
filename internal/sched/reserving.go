package sched

import (
	"math"

	"amjs/internal/job"
	"amjs/internal/units"
)

// ReserveAll is the reservation depth that reserves every blocked job:
// conservative backfilling.
const ReserveAll = math.MaxInt

// Reserving is the family of list and backfilling schedulers built on
// machine plans, told apart by reservation depth: the selective
// reservation of Srinivasan et al. (JSSPP 2002). It walks the queue in
// policy order; jobs that fit start immediately, the first Depth
// blocked jobs receive reservations, and later jobs may start now only
// if doing so delays no reservation (checked exactly against the plan,
// which generalizes EASY's shadow-time/extra-node rule to contiguous
// partitioned machines).
//
//   - Depth 0, StopAtBlocked: the pass ends at the first job that does
//     not fit — the textbook FCFS/SJF/LJF list scheduling whose
//     head-of-line blocking and fragmentation motivate backfilling.
//   - Depth 0: blocked jobs are skipped — greedy first fit, with no
//     starvation protection at all.
//   - Depth 1: only the first blocked job is reserved — EASY
//     backfilling (Mu'alem & Feitelson).
//   - Depth ReserveAll: every blocked job is reserved — conservative
//     backfilling.
type Reserving struct {
	PolicyName    string
	Order         Order
	Depth         int
	StopAtBlocked bool

	// RelaxSlack implements the relaxed backfilling of Ward, Mahood &
	// West (JSSPP 2002), cited in the paper's related work: a backfill
	// job may start even when it delays the protected reservation,
	// provided the reservation slips by no more than the slack from its
	// original time. Zero means strict EASY. Used only at Depth 1, by a
	// pass of its own.
	RelaxSlack units.Duration
}

// NewFCFS returns strict first-come-first-served (no backfilling).
func NewFCFS() *Reserving {
	return &Reserving{PolicyName: "fcfs", Order: SubmitOrder, StopAtBlocked: true}
}

// NewSJF returns strict shortest-job-first.
func NewSJF() *Reserving {
	return &Reserving{PolicyName: "sjf", Order: ShortestFirst, StopAtBlocked: true}
}

// NewLJF returns strict longest-job-first.
func NewLJF() *Reserving {
	return &Reserving{PolicyName: "ljf", Order: LongestFirst, StopAtBlocked: true}
}

// NewFirstFit returns greedy first-fit in submission order.
func NewFirstFit() *Reserving { return &Reserving{PolicyName: "firstfit", Order: SubmitOrder} }

// NewRelaxed returns relaxed backfilling over FCFS order with the given
// total reservation slack.
func NewRelaxed(slack units.Duration) *Reserving {
	return &Reserving{PolicyName: "relaxed-fcfs", Order: SubmitOrder, Depth: 1, RelaxSlack: slack}
}

// NewEASY returns EASY backfilling over FCFS order — the prevailing
// production default the paper uses as its baseline.
func NewEASY() *Reserving {
	return &Reserving{PolicyName: "easy-fcfs", Order: SubmitOrder, Depth: 1}
}

// NewConservative returns conservative backfilling over FCFS order.
func NewConservative() *Reserving {
	return &Reserving{PolicyName: "conservative-fcfs", Order: SubmitOrder, Depth: ReserveAll}
}

// NewWFP returns the Cobalt-style utility-function policy (WFP3 scoring)
// with EASY backfilling.
func NewWFP() *Reserving {
	return &Reserving{PolicyName: "wfp", Order: WFPOrder, Depth: 1}
}

// NewUNICEF returns the UNICEF policy (wait / (log2(nodes+1)*walltime)
// scoring, favoring long-waiting small short jobs) with EASY
// backfilling.
func NewUNICEF() *Reserving {
	return &Reserving{PolicyName: "unicef", Order: UNICEFOrder, Depth: 1}
}

// NewLargest returns largest-job-first (by node request) with EASY
// backfilling.
func NewLargest() *Reserving {
	return &Reserving{PolicyName: "largest", Order: LargestFirst, Depth: 1}
}

// NewSmallest returns smallest-job-first (by node request) with EASY
// backfilling.
func NewSmallest() *Reserving {
	return &Reserving{PolicyName: "smallest", Order: SmallestFirst, Depth: 1}
}

// Name implements Scheduler.
func (r *Reserving) Name() string { return r.PolicyName }

// Clone implements Scheduler.
func (r *Reserving) Clone() Scheduler {
	c := *r
	return &c
}

// LastPass implements PassReporter. Reserving rebuilds every
// reservation from the queue on each pass and keeps nothing between
// passes (the plan and its reservations are pass-local), so no pass
// ever mutates persistent scheduler state; it bounds nothing and
// promises no quiescence.
func (r *Reserving) LastPass() PassReport { return PassReport{} }

// Schedule implements Scheduler.
func (r *Reserving) Schedule(env Env) {
	queue := env.Queue()
	if len(queue) == 0 {
		return
	}
	if r.RelaxSlack > 0 && r.Depth == 1 {
		r.scheduleRelaxed(env, queue)
		return
	}
	backfill(env, r.Order(env.Now(), queue), r.Depth, r.StopAtBlocked, nil)
}

// backfill is the one reservation-depth backfill pass, shared by
// Reserving, FairShare and DynP. It walks the queue, already in
// priority order: a job that fits now starts at the plan's hint, and
// the start is committed into the plan. A blocked job ends the pass
// when stopAtBlocked is set; otherwise the first depth blocked jobs
// are committed at their earliest start as reservations that no later
// start may delay. started, when non-nil, sees every start.
func backfill(env Env, queue []*job.Job, depth int, stopAtBlocked bool, started func(*job.Job)) {
	now := env.Now()
	plan := env.Machine().Plan(now)
	for _, j := range queue {
		ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
		if ts == now && env.StartAt(j, hint) {
			plan.Commit(j.Nodes, now, j.Walltime, hint)
			if started != nil {
				started(j)
			}
			continue
		}
		if stopAtBlocked {
			break
		}
		if ts == units.Forever {
			continue // can never run; the engine screens these out on arrival
		}
		if depth > 0 {
			plan.Commit(j.Nodes, ts, j.Walltime, hint)
			depth--
		}
	}
	RecyclePlan(env.Machine(), plan)
}

// scheduleRelaxed is the relaxed-backfilling pass: the protected
// reservation is not committed into the plan; instead each backfill
// candidate is admitted iff, with the candidate running, the protected
// job could still start within RelaxSlack of its original reservation.
func (r *Reserving) scheduleRelaxed(env Env, queue []*job.Job) {
	now := env.Now()
	free := env.Machine().Plan(now) // running jobs + admitted starts only
	var resJob *job.Job
	var resOrigin units.Time
	for _, j := range r.Order(now, queue) {
		ts, hint := free.EarliestStart(j.Nodes, j.Walltime)
		if ts == units.Forever {
			continue
		}
		if resJob == nil {
			if ts == now && env.StartAt(j, hint) {
				free.Commit(j.Nodes, now, j.Walltime, hint)
				continue
			}
			resJob, resOrigin = j, ts
			continue
		}
		if ts != now {
			continue
		}
		// Candidate fits now when the reservation is ignored: admit it
		// only if the reservation slips by at most the slack.
		mark := free.Save()
		free.Commit(j.Nodes, now, j.Walltime, hint)
		slipped, _ := free.EarliestStart(resJob.Nodes, resJob.Walltime)
		free.Restore(mark)
		if slipped > resOrigin.Add(r.RelaxSlack) {
			continue
		}
		if env.StartAt(j, hint) {
			free.Commit(j.Nodes, now, j.Walltime, hint)
		}
	}
	RecyclePlan(env.Machine(), free)
}
