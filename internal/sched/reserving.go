package sched

import (
	"amjs/internal/job"
	"amjs/internal/units"
)

// Reserving is the family of backfilling schedulers built on machine
// plans. It walks the queue in policy order; jobs that fit start
// immediately, blocked jobs receive reservations, and later jobs may
// start now only if doing so delays no reservation (checked exactly
// against the plan, which generalizes EASY's shadow-time/extra-node rule
// to contiguous partitioned machines).
//
//   - Conservative = false: only the first blocked job is reserved —
//     EASY backfilling (Mu'alem & Feitelson).
//   - Conservative = true: every blocked job is reserved — conservative
//     backfilling.
type Reserving struct {
	PolicyName   string
	Order        Order
	Conservative bool

	// RelaxSlack implements the relaxed backfilling of Ward, Mahood &
	// West (JSSPP 2002), cited in the paper's related work: a backfill
	// job may start even when it delays the protected reservation,
	// provided the reservation slips by no more than the slack from its
	// original time. Zero means strict EASY. Ignored in conservative
	// mode.
	RelaxSlack units.Duration
}

// NewRelaxed returns relaxed backfilling over FCFS order with the given
// total reservation slack.
func NewRelaxed(slack units.Duration) *Reserving {
	return &Reserving{PolicyName: "relaxed-fcfs", Order: SubmitOrder, RelaxSlack: slack}
}

// NewEASY returns EASY backfilling over FCFS order — the prevailing
// production default the paper uses as its baseline.
func NewEASY() *Reserving {
	return &Reserving{PolicyName: "easy-fcfs", Order: SubmitOrder}
}

// NewConservative returns conservative backfilling over FCFS order.
func NewConservative() *Reserving {
	return &Reserving{PolicyName: "conservative-fcfs", Order: SubmitOrder, Conservative: true}
}

// NewWFP returns the Cobalt-style utility-function policy (WFP3 scoring)
// with EASY backfilling.
func NewWFP() *Reserving {
	return &Reserving{PolicyName: "wfp", Order: WFPOrder}
}

// NewUNICEF returns the UNICEF policy (wait / (log2(nodes+1)*walltime)
// scoring, favoring long-waiting small short jobs) with EASY
// backfilling.
func NewUNICEF() *Reserving {
	return &Reserving{PolicyName: "unicef", Order: UNICEFOrder}
}

// NewLargest returns largest-job-first (by node request) with EASY
// backfilling.
func NewLargest() *Reserving {
	return &Reserving{PolicyName: "largest", Order: LargestFirst}
}

// NewSmallest returns smallest-job-first (by node request) with EASY
// backfilling.
func NewSmallest() *Reserving {
	return &Reserving{PolicyName: "smallest", Order: SmallestFirst}
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
	if r.RelaxSlack > 0 && !r.Conservative {
		r.scheduleRelaxed(env, queue)
		return
	}
	now := env.Now()
	plan := env.Machine().Plan(now)
	reservedOne := false
	for _, j := range r.Order(now, queue) {
		ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
		if ts == now && env.StartAt(j, hint) {
			plan.Commit(j.Nodes, now, j.Walltime, hint)
			continue
		}
		if ts == units.Forever {
			continue // can never run; the engine screens these out on arrival
		}
		if r.Conservative || !reservedOne {
			plan.Commit(j.Nodes, ts, j.Walltime, hint)
			reservedOne = true
		}
	}
	recyclePlan(env.Machine(), plan)
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
	recyclePlan(env.Machine(), free)
}
