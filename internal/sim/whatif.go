// What-if lookahead rollouts: the engine forks its live state — machine
// occupancy, running set, queue, scheduling grids — into per-candidate
// closed worlds (world.go) and simulates each one a short horizon into
// the future, so the adaptive tuner can score candidate (BF, W)
// settings on simulated outcomes instead of threshold rules. Each
// candidate slot owns its world outright, so rollouts fan out across
// cores without sharing.
package sim

import (
	"time"

	"amjs/internal/job"
	"amjs/internal/parallel"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// bsldTau is the bounded-slowdown runtime floor (the conventional 10
// minutes): BSLD = max(1, (wait + runtime) / max(runtime, tau)).
const bsldTau = 10 * units.Minute

// Lookahead implements sched.Lookaheader: one rollout per candidate, in
// input order, each in a private fork of the current engine state. It
// is called from inside an adaptive checkpoint (sched.Adaptive), where
// the tick and checkpoint grids still hold their firing instants — the
// forks re-enter the exact grid continuation, including the pass the
// main engine is about to run. Nested engines refuse: a rollout that
// spawned rollouts would recurse without bound.
//
// Forks read the live engine (machine, running set, queue) and write
// only their own clones, so the main engine's observable state — and
// therefore the schedule — is byte-identical with and without
// lookahead. The Paranoid differential suite pins that.
func (e *engine) Lookahead(cands []sched.Scheduler, horizon units.Duration, workers int, budget time.Duration) ([]sched.Rollout, bool) {
	if e.sub || horizon <= 0 || len(cands) == 0 {
		return nil, false
	}
	for len(e.laWorlds) < len(cands) {
		e.laWorlds = append(e.laWorlds, world{})
	}
	if cap(e.laOut) < len(cands) {
		e.laOut = make([]sched.Rollout, len(cands))
	}
	out := e.laOut[:len(cands)]
	clear(out)
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	// Read the queue once, before the fan-out: the accessor rebuilds a
	// cached view when a removal left it stale, which is a write the
	// concurrent rollouts must not race on.
	queueView := e.queue.jobs()
	run := func(i int) {
		// The first candidate (the caller's incumbent) always runs, so
		// the planner keeps a baseline even under an exhausted budget.
		if i > 0 && budget > 0 && time.Now().After(deadline) {
			return // out[i] stays Valid=false
		}
		out[i] = e.rollout(&e.laWorlds[i], cands[i], queueView, horizon)
	}
	if workers <= 1 || len(cands) == 1 {
		for i := range cands {
			run(i)
		}
	} else {
		_ = parallel.ForEach(len(cands), workers, func(i int) error {
			run(i)
			return nil
		})
	}
	return out, true
}

// rollout forks the live engine state into w under cand and simulates
// it for horizon, accumulating the outcome sums the planner scores. It
// only reads from e (safe concurrently with the other rollouts) and
// writes exclusively to the world's own clones.
func (e *engine) rollout(w *world, cand sched.Scheduler, queueView []*job.Job, horizon units.Duration) (r sched.Rollout) {
	// Nothing is cut off or rewound, and the grids re-enter where the
	// engine holds them (see Lookahead): nextCheck is the firing instant,
	// so the fork runs the checkpoint-forced pass the engine is about to
	// run — under the candidate tunables.
	sub := w.fork(e, cand, queueView, units.Forever, nil)
	w.armGrids(e.nextTick, e.nextCheck, true)
	arena, qn := w.arena, sub.queue.len()

	// Drive the fork to the horizon, integrating busy nodes over each
	// advance of its clock. Events beyond the horizon stay unprocessed:
	// the rollout scores the horizon window, nothing more.
	end := e.now.Add(horizon)
	r.Horizon = horizon
	r.TotalNodes = e.machine.TotalNodes()
	var util float64
	for {
		it, ok := sub.events.Peek()
		if !ok || it.Time > end {
			break
		}
		busy := sub.machine.BusyNodes()
		prev := sub.now
		ok, err := sub.step()
		if err != nil {
			return r // Valid stays false
		}
		if sub.now > prev {
			util += float64(busy) * float64(sub.now.Sub(prev))
		}
		if !ok {
			break
		}
	}
	if sub.now < end {
		util += float64(sub.machine.BusyNodes()) * float64(end.Sub(sub.now))
	}
	r.UtilNodeSec = util

	// Score the fork-queued population (the first qn arena entries):
	// started jobs contribute their realized wait, stranded ones their
	// wait truncated at the horizon. Completions count started and
	// pre-running jobs alike.
	for i := range arena {
		c := &arena[i]
		done := c.State == job.Finished || c.State == job.Killed
		if done && c.End > e.now && c.End <= end {
			r.Completed++
		}
		if i >= qn {
			continue
		}
		if c.State == job.Running || done {
			r.Started++
			wait := c.Start.Sub(c.Submit)
			r.WaitSum += wait
			r.BSLDSum += boundedSlowdown(wait, effectiveRuntime(c))
		} else {
			r.LeftQueued++
			wait := end.Sub(c.Submit)
			r.WaitSum += wait
			r.BSLDSum += boundedSlowdown(wait, c.Walltime)
		}
	}
	r.Valid = true
	return r
}

// boundedSlowdown is the classic BSLD with the 10-minute runtime floor.
func boundedSlowdown(wait, runtime units.Duration) float64 {
	denom := runtime
	if denom < bsldTau {
		denom = bsldTau
	}
	s := float64(wait+runtime) / float64(denom)
	if s < 1 {
		return 1
	}
	return s
}
