package sched

// List is a plain list scheduler without reservations: it walks the
// queue in policy order and starts what fits.
//
// In Strict mode it stops at the first job that does not fit — the
// textbook FCFS/SJF/LJF behaviour whose head-of-line blocking and
// fragmentation motivate backfilling. In greedy mode it skips blocked
// jobs and keeps walking (first-fit, no starvation protection at all).
type List struct {
	PolicyName string
	Order      Order
	Strict     bool
}

// NewFCFS returns strict first-come-first-served (no backfilling).
func NewFCFS() *List { return &List{PolicyName: "fcfs", Order: SubmitOrder, Strict: true} }

// NewSJF returns strict shortest-job-first.
func NewSJF() *List { return &List{PolicyName: "sjf", Order: ShortestFirst, Strict: true} }

// NewLJF returns strict longest-job-first.
func NewLJF() *List { return &List{PolicyName: "ljf", Order: LongestFirst, Strict: true} }

// NewFirstFit returns greedy first-fit in submission order.
func NewFirstFit() *List { return &List{PolicyName: "firstfit", Order: SubmitOrder, Strict: false} }

// Name implements Scheduler.
func (l *List) Name() string { return l.PolicyName }

// Clone implements Scheduler.
func (l *List) Clone() Scheduler {
	c := *l
	return &c
}

// LastPass implements PassReporter. A list pass carries no state across
// passes at all — every decision is recomputed from the queue and
// machine — so no pass ever mutates persistent scheduler state; it
// bounds nothing and promises no quiescence.
func (l *List) LastPass() PassReport { return PassReport{} }

// Schedule implements Scheduler.
func (l *List) Schedule(env Env) {
	queue := env.Queue()
	if len(queue) == 0 {
		return
	}
	for _, j := range l.Order(env.Now(), queue) {
		if env.Start(j) {
			continue
		}
		if l.Strict {
			return
		}
	}
}
