package sched

import (
	"fmt"

	"amjs/internal/job"
	"amjs/internal/units"
)

// DynP is the self-tuning policy switcher of Streit et al. (JSSPP 2002),
// the related-work comparator discussed in the paper's §II. Before each
// pass it evaluates a candidate set of queue orders — classically FCFS,
// SJF, and LJF — by building each order's full tentative schedule on a
// plan clone and estimating the resulting average waiting time from the
// planned starts; the best order wins and is executed with EASY
// backfilling.
//
// Unlike the paper's adaptive tuning, dynP switches between a few
// discrete policies from queue contents alone; it has no notion of
// balancing fairness/utilization metrics or of monitored feedback.
type DynP struct {
	Candidates []Order
	names      []string
	lastChoice int
}

// NewDynP returns dynP with the classic FCFS/SJF/LJF candidate set.
func NewDynP() *DynP {
	return &DynP{
		Candidates: []Order{SubmitOrder, ShortestFirst, LongestFirst},
		names:      []string{"fcfs", "sjf", "ljf"},
	}
}

// Name implements Scheduler.
func (d *DynP) Name() string { return "dynp" }

// LastChoice reports which candidate the previous pass selected (for
// tests and diagnostics).
func (d *DynP) LastChoice() string {
	if d.lastChoice < 0 || d.lastChoice >= len(d.names) || len(d.names) == 0 {
		return fmt.Sprintf("candidate-%d", d.lastChoice)
	}
	return d.names[d.lastChoice]
}

// Clone implements Scheduler.
func (d *DynP) Clone() Scheduler {
	c := *d
	c.Candidates = append([]Order(nil), d.Candidates...)
	c.names = append([]string(nil), d.names...)
	return &c
}

// Schedule implements Scheduler.
func (d *DynP) Schedule(env Env) {
	queue := env.Queue()
	if len(queue) == 0 {
		return
	}
	best, bestWait := 0, 0.0
	for i, order := range d.Candidates {
		w := d.estimateAvgWait(env, order, queue)
		if i == 0 || w < bestWait {
			best, bestWait = i, w
		}
	}
	d.lastChoice = best
	backfill(env, d.Candidates[best](env.Now(), queue), 1, false, nil)
}

// estimateAvgWait builds the order's tentative schedule on a plan clone
// and returns the mean planned wait (seconds) across the queue.
func (d *DynP) estimateAvgWait(env Env, order Order, queue []*job.Job) float64 {
	now := env.Now()
	plan := env.Machine().Plan(now)
	total := 0.0
	n := 0
	for _, j := range order(now, queue) {
		ts, hint := plan.EarliestStart(j.Nodes, j.Walltime)
		if ts == units.Forever {
			continue
		}
		plan.Commit(j.Nodes, ts, j.Walltime, hint)
		total += float64(j.WaitAt(ts))
		n++
	}
	RecyclePlan(env.Machine(), plan)
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
