// Package sched defines the scheduler interface the simulator drives
// and implements the classic baseline policies the paper compares
// against: FCFS/SJF/LJF list scheduling, first fit, EASY, conservative
// and relaxed backfilling over the classic queue orders (WFP, UNICEF,
// size- and expansion-ordered), fair share, and a dynP-style
// self-tuning policy switcher. Every priority order ranks by one rule,
// ComparePriority. The list and backfilling policies differ only in
// queue order and reservation depth (Reserving) and, relaxed
// backfilling aside, run one placement loop; fair share and dynP run
// it too.
//
// The paper's own contribution — metric-aware windowed scheduling with
// adaptive policy tuning — lives in package core and implements the
// same interface.
package sched

import (
	"math"
	"slices"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// Env is the scheduler's view of the system during one scheduling pass.
// It is implemented by the simulation engine (and by a live resource
// manager, in principle).
type Env interface {
	// Now is the current simulated instant.
	Now() units.Time

	// Machine is the resource being scheduled. Schedulers may query it
	// and obtain Plans, but must start jobs only through StartAt.
	Machine() machine.Machine

	// Queue returns the waiting jobs in submission order as a shared
	// read-only view: the same backing array is handed to every caller
	// and reused across passes, so schedulers must not modify the slice
	// in place (copy it before reordering — see byKey) and must not
	// retain it across Schedule calls. The pointed-to jobs are shared
	// with the engine; schedulers mutate them only through StartAt.
	Queue() []*job.Job

	// StartAt begins a job now at the placement hint previously obtained
	// from a machine Plan, returning false if it does not fit there. On
	// success the job leaves the queue.
	StartAt(j *job.Job, hint int) bool
}

// Scheduler decides which queued jobs start as the simulation advances.
// Schedule is invoked after every batch of simultaneous events (arrivals
// and completions) and after checkpoints.
type Scheduler interface {
	// Name identifies the policy configuration, e.g. "easy-fcfs" or
	// "metric-aware(bf=0.5,w=4)".
	Name() string

	// Schedule examines the environment and starts zero or more jobs.
	Schedule(env Env)

	// Clone returns an independent copy with the same configuration and
	// current tuning state (used for nested fairness simulations).
	Clone() Scheduler
}

// MetricsView exposes the monitored runtime metrics that adaptive
// policies consume at checkpoints.
type MetricsView interface {
	// QueueDepthMinutes is the paper's queue-depth metric: the sum of
	// the waiting times accumulated so far by all currently queued jobs,
	// in minutes.
	QueueDepthMinutes() float64

	// UtilWindowAvg is the machine utilization averaged over the
	// trailing window (1.0 = fully busy), clipped at the trace start.
	UtilWindowAvg(w units.Duration) float64
}

// Adaptive is implemented by schedulers that retune themselves from
// monitored metrics. The engine calls Checkpoint every checking
// interval C_i, before the subsequent scheduling pass.
type Adaptive interface {
	Scheduler
	Checkpoint(env Env, m MetricsView)
}

// InvariantChecker is an optional Env capability: it reports whether
// the environment is auditing this run with the schedule-validity
// oracle (internal/invariant). Schedulers use it to enable their own
// expensive self-checks — the metric-aware policy cross-checks its
// pruned window search against the exhaustive W! oracle — only when the
// run asked for them.
type InvariantChecker interface {
	InvariantChecking() bool
}

// PassReporter is implemented by schedulers that can describe, after
// each Schedule call, how far the pass reached and what it left behind.
// The engine always reads the claims together — the fairness oracle to
// keep deferred no-later-arrival worlds glued to the main schedule, the
// event loop to elide passes that provably repeat as no-ops — so they
// travel as one report. A scheduler that cannot make a claim leaves its
// field at the conservative value; one that does not implement the
// interface at all is read as unbounded, not quiescent, and assumed to
// have mutated state.
type PassReporter interface {
	LastPass() PassReport
}

// PassReport is what a scheduler claims about its last Schedule call.
type PassReport struct {
	// Horizon bounds how deep into the arrival stream the pass's outcome
	// reached, as a submit time H with this contract: for any cutoff
	// T >= H, running the same pass (same machine state, same plan
	// inputs, same pre-pass scheduler state) on the sub-queue
	// {j : j.Submit <= T} would have produced the identical outcome —
	// the same started jobs with the same placements and the same
	// post-pass scheduler state. Bounded reports whether the bound is
	// valid; a pass the scheduler cannot bound (an algorithm whose
	// decisions may hinge on any queued job) must leave it false so the
	// caller assumes the whole queue mattered.
	//
	// The fairness oracle uses the horizon to keep deferred no-later-
	// arrival worlds glued to the main schedule: a pending batch that
	// arrived at instant T stays byte-identical to the main engine while
	// every executed pass reports H <= T, so its fair starts resolve
	// without simulating anything.
	Horizon units.Time
	Bounded bool

	// Quiescent claims the pass is time-invariant on unchanged state:
	// repeating it at any later instant, with the same machine state,
	// queue, and scheduler state, would again start nothing and leave
	// every piece of persistent scheduler state untouched. The engine
	// uses it to elide due passes outright until the next
	// schedule-relevant event, even when Eq. 4's δ says some queued job
	// fits the idle nodes (a backfill candidate held off by a protected
	// reservation keeps δ true for hours of simulated time).
	//
	// The claim is sound for policies whose start and reservation
	// decisions depend on the plan alone, not the clock: every plan
	// instant (a running job's walltime-bound release, a reservation's
	// earliest fit) is absolute, and the first of them to arrive is
	// preceded by the end event that frees the nodes — which dirties the
	// engine and forces a real pass. Time-varying priority scores may
	// reorder the queue between ticks. That is harmless for a policy
	// whose only commitment is one reservation held across passes: the
	// held job pins it, so every other job meets the same plan in any
	// order. A policy that rebuilds several reservations in priority
	// order each pass (conservative backfilling) is different: its own
	// reservations can block a job that another order would start, so
	// it may claim quiescence only when the clock cannot reorder its
	// queue. Policies that cannot make this promise leave it false.
	Quiescent bool

	// Mutated reports whether the pass changed any persistent cross-pass
	// scheduler state — a protected reservation granted, released, or
	// moved to a different job. Pass-local scratch, the report itself,
	// and bookkeeping no future decision reads (a re-committed
	// reservation's refreshed start instant) do not count.
	//
	// The event-mode fairness oracle consults it at phantom instants:
	// instants where the main engine runs a scheduling pass but a
	// deferred no-later-arrival world has no event at all (an extra
	// job's arrival, a checkpoint). The deferred world skips that pass
	// entirely, so it stays glued to the main schedule only if the pass
	// both started nothing and left every piece of persistent scheduler
	// state untouched. Schedulers that cannot make the distinction
	// report true, and the deferred worlds resolve conservatively.
	Mutated bool

	// Untuned claims the pass reached its outcome without reading a
	// tunable (the metric-aware policy's BF and W): a clone that differs
	// from this scheduler only in its tunables, run from the same
	// machine, queue and scheduler state, would have made the identical
	// pass. The what-if lookahead (internal/sim) relies on it to run the
	// untuned prefix of its candidates' rollouts once, on the incumbent,
	// and fork the other candidates from the first pass that is tuned or
	// starts a job. The claim is a property of the pass's code path, not
	// of the clock or the runtime view, so it needs no further premise.
	// Schedulers that cannot make it leave it false.
	Untuned bool
}

// RecyclePlan hands a finished pass's plan back to the machine's pool
// when the machine keeps one (see machine.PlanRecycler). The plan must
// not be used after the call.
func RecyclePlan(m machine.Machine, pl machine.Plan) {
	if r, ok := m.(machine.PlanRecycler); ok {
		r.Recycle(pl)
	}
}

// Order sorts a queue snapshot into scheduling order (most urgent
// first), returning a new slice. Implementations must be deterministic;
// ties are conventionally broken by submission time then ID.
type Order func(now units.Time, queue []*job.Job) []*job.Job

// ComparePriority is the one queue-ranking rule every priority order in
// the repo sorts by: score descending, then submission time, then ID.
// Scores compare with > and <, so equal scores (and a NaN, which no
// order produces) fall through to the (submit, ID) tie-break; IDs are
// unique, so the rule is a strict total order and any sort yields the
// one sequence a stable sort would. At BF=1 the paper's Eq. 3 scores
// by wait alone, which ties exactly among jobs submitted at one
// instant; this tie-break is what makes that order FCFS exactly.
func ComparePriority(sa float64, a *job.Job, sb float64, b *job.Job) int {
	switch {
	case sa > sb:
		return -1
	case sa < sb:
		return 1
	case a.Submit < b.Submit:
		return -1
	case a.Submit > b.Submit:
		return 1
	}
	return a.ID - b.ID
}

// byKey copies queue and sorts it by key, highest first, under
// ComparePriority. The key is evaluated inside the comparator, so the
// copy is the only allocation.
func byKey(queue []*job.Job, key func(*job.Job) float64) []*job.Job {
	out := slices.Clone(queue)
	slices.SortFunc(out, func(a, b *job.Job) int { return ComparePriority(key(a), a, key(b), b) })
	return out
}

// SubmitOrder is first-come, first-served.
func SubmitOrder(_ units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(*job.Job) float64 { return 0 })
}

// ShortestFirst orders by requested walltime, shortest first (SJF).
func ShortestFirst(_ units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 { return -float64(j.Walltime) })
}

// LongestFirst orders by requested walltime, longest first (LJF).
func LongestFirst(_ units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 { return float64(j.Walltime) })
}

// LargestFirst orders by node request, largest first.
func LargestFirst(_ units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 { return float64(j.Nodes) })
}

// SmallestFirst orders by node request, smallest first — the packing-
// friendly counterpart of LargestFirst from the classic zoo.
func SmallestFirst(_ units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 { return -float64(j.Nodes) })
}

// MaxExpansionFirst orders by expansion factor (wait+walltime)/walltime,
// largest first — the classic compromise policy mentioned in the paper's
// introduction.
func MaxExpansionFirst(now units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 {
		return float64(j.WaitAt(now)+j.Walltime) / float64(j.Walltime)
	})
}

// WFPOrder is the Cobalt-style utility function (WFP3): jobs score
// (wait/walltime)^3 * nodes, so long-waiting, short, and large jobs rise.
func WFPOrder(now units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 {
		r := float64(j.WaitAt(now)) / float64(j.Walltime)
		return r * r * r * float64(j.Nodes)
	})
}

// UNICEFOrder scores jobs wait / (log2(nodes+1) * walltime), highest
// first: long-waiting, small, short jobs rise — the interactivity-
// favoring policy from the deep-batch-scheduler zoo, the philosophical
// opposite of WFP's large-job bias.
func UNICEFOrder(now units.Time, queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 {
		denom := math.Log2(float64(j.Nodes)+1) * float64(j.Walltime)
		if denom <= 0 {
			return math.Inf(1)
		}
		return float64(j.WaitAt(now)) / denom
	})
}

// NamedOrder pairs a queue order with its registry name.
type NamedOrder struct {
	Name  string
	Order Order
}

// Orders is the policy zoo's order registry: every queue order the
// schedulers in this package build on, by name. The property suite
// (order_property_test.go) walks the registry and asserts each entry is
// a total, deterministic, permutation-invariant order with the
// (submit, ID) tie-break — registering a new Order here is one line and
// buys all of those checks.
func Orders() []NamedOrder {
	return []NamedOrder{
		{"submit", SubmitOrder},
		{"shortest", ShortestFirst},
		{"longest", LongestFirst},
		{"largest", LargestFirst},
		{"smallest", SmallestFirst},
		{"maxexpansion", MaxExpansionFirst},
		{"wfp", WFPOrder},
		{"unicef", UNICEFOrder},
	}
}
