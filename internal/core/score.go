// Package core implements the paper's contribution: metric-aware job
// scheduling (balanced priority scoring plus window-based allocation,
// §III-B) and adaptive policy tuning (§III-C, Algorithm 1).
package core

import (
	"slices"

	"amjs/internal/job"
	"amjs/internal/units"
)

// ScoreWait is Eq. (1): the job-age score, mapped to [0, 100]. A job
// that has waited as long as the longest-waiting job in the queue scores
// 100; a fresh job scores near 0. When the maximum wait is zero (a job
// just arrived to an empty queue) the score is 0.
//
// Note: the paper's equation prints wait_max/wait_i, which exceeds 100
// and inverts the stated semantics (BF→1 must approach FCFS); we
// implement the evidently intended wait_i/wait_max. See DESIGN.md §2.
func ScoreWait(wait, waitMax units.Duration) float64 {
	if waitMax <= 0 {
		return 0
	}
	if wait < 0 {
		wait = 0
	}
	return 100 * float64(wait) / float64(waitMax)
}

// ScoreRuntime is Eq. (2): the job-shortness score, mapped to [0, 100].
// The shortest requested walltime in the queue scores 100, the longest
// scores 0. With a single job in the queue (max == min) the score is 0.
func ScoreRuntime(walltime, wallMin, wallMax units.Duration) float64 {
	if wallMax <= wallMin {
		return 0
	}
	return 100 * float64(wallMax-walltime) / float64(wallMax-wallMin)
}

// BalancedPriority is Eq. (3): S_p = BF*S_w + (1-BF)*S_r. BF near 1
// favours fairness (job age); BF near 0 favours efficiency (short jobs).
func BalancedPriority(sw, sr, bf float64) float64 {
	return bf*sw + (1-bf)*sr
}

// Prioritize performs Steps 1–4 of the metric-aware algorithm: it scores
// every queued job and returns a new slice sorted by balanced priority,
// highest first. Ties are broken by submission time then ID, so BF=1
// yields exactly the FCFS order.
func Prioritize(now units.Time, queue []*job.Job, bf float64) []*job.Job {
	var scratch prioScratch
	return append([]*job.Job(nil), scratch.prioritize(now, queue, bf)...)
}

// prioScratch holds the scoring and sorting buffers of one Prioritize
// pass. The metric-aware scheduler keeps one per instance so that after
// warm-up a scheduling pass allocates nothing for scoring: the paper's
// evaluation needs thousands of simulations, each running this on every
// pass of every nested fairness simulation.
type prioScratch struct {
	jobs    []*job.Job
	entries []prioEntry

	// aggHorizon is the latest submit time among the earliest-submitted
	// holders of the queue's walltime extrema after the last prioritize
	// call. ScoreRuntime scales every job's shortness score by the
	// queue-wide [wallMin, wallMax] band, so any submit-prefix of the
	// queue extending to aggHorizon retains both extrema and scores all
	// shared jobs identically. (The wait score's anchor, the maximum
	// wait, belongs to the earliest-submitted job of all and survives
	// every nonempty prefix for free.) Feeds sched.PassReport.
	aggHorizon units.Time
}

// prioEntry pairs a job with its balanced priority so the sort moves
// one small struct instead of two parallel arrays through an interface.
type prioEntry struct {
	score float64
	j     *job.Job
}

// prioritize scores queue into the scratch buffers and sorts them by
// balanced priority, highest first, ties broken by (submit, ID). The
// comparison is a strict total order (IDs are unique), so the result is
// the unique sorted sequence — identical to what a stable sort yields.
// The returned slice is scratch, valid until the next call.
func (p *prioScratch) prioritize(now units.Time, queue []*job.Job, bf float64) []*job.Job {
	if len(queue) == 0 {
		return nil
	}
	var waitMax units.Duration
	wallMin, wallMax := queue[0].Walltime, queue[0].Walltime
	minHold, maxHold := queue[0].Submit, queue[0].Submit
	for _, j := range queue {
		if w := j.WaitAt(now); w > waitMax {
			waitMax = w
		}
		if j.Walltime < wallMin || (j.Walltime == wallMin && j.Submit < minHold) {
			wallMin, minHold = j.Walltime, j.Submit
		}
		if j.Walltime > wallMax || (j.Walltime == wallMax && j.Submit < maxHold) {
			wallMax, maxHold = j.Walltime, j.Submit
		}
	}
	p.aggHorizon = minHold
	if maxHold > p.aggHorizon {
		p.aggHorizon = maxHold
	}
	if cap(p.entries) < len(queue) {
		p.entries = make([]prioEntry, 0, len(queue))
	}
	p.entries = p.entries[:0]
	for _, j := range queue {
		sw := ScoreWait(j.WaitAt(now), waitMax)
		sr := ScoreRuntime(j.Walltime, wallMin, wallMax)
		p.entries = append(p.entries, prioEntry{BalancedPriority(sw, sr, bf), j})
	}
	slices.SortFunc(p.entries, func(a, b prioEntry) int {
		switch {
		case a.score != b.score:
			if a.score > b.score {
				return -1
			}
			return 1
		case a.j.Submit != b.j.Submit:
			if a.j.Submit < b.j.Submit {
				return -1
			}
			return 1
		default:
			return a.j.ID - b.j.ID
		}
	})
	p.jobs = p.jobs[:0]
	for _, e := range p.entries {
		p.jobs = append(p.jobs, e.j)
	}
	return p.jobs
}
