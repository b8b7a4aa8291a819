// What-if lookahead rollouts: the engine forks its live state — machine
// occupancy, running set, queue, scheduling grids — into per-candidate
// closed worlds (world.go) and simulates each one a short horizon into
// the future, so the adaptive tuner can score candidate (BF, W)
// settings on simulated outcomes instead of threshold rules.
//
// The candidates share the untuned prefix of their rollouts (see
// Lookahead); past it, each runs in a world of its own, so the rollouts
// fan out across cores without sharing.
package sim

import (
	"fmt"
	"time"

	"amjs/internal/job"
	"amjs/internal/parallel"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// bsldTau is the bounded-slowdown runtime floor (the conventional 10
// minutes): BSLD = max(1, (wait + runtime) / max(runtime, tau)).
const bsldTau = 10 * units.Minute

// lookahead is the engine's what-if scratch, reused across ticks so a
// warm tick allocates nothing: one world per candidate slot, the
// rollout results handed to the planner, the starts of the pass the
// candidates fork at, and a spare world for the Paranoid audit. The
// rest describes the tick in progress, for finishRollout.
type lookahead struct {
	worlds []world
	out    []sched.Rollout
	begun  []passBegin
	audit  world

	queue    []*job.Job // the tick's queue, read once (see Lookahead)
	start    units.Time // the tick's instant
	end      units.Time // the horizon's end
	deadline time.Time  // the budget's end; zero for none
	finishFn func(int) error
}

// Lookahead implements sched.Lookaheader: one rollout per candidate, in
// input order. It is called from inside an adaptive checkpoint
// (sched.Adaptive), where the tick and checkpoint grids still hold
// their firing instants — the forks re-enter the exact grid
// continuation, including the pass the main engine is about to run.
// Nested engines refuse: a rollout that spawned rollouts would recurse
// without bound.
//
// The incumbent (candidate zero) runs first, through its untuned prefix:
// every pass before its first one that is not Untuned or that starts a
// job. A candidate that differs only in its tunables makes exactly those
// passes from exactly those states, so when the prefix reaches the
// horizon every other candidate gets the incumbent's rollout. Otherwise
// each one forks from the incumbent's world as it stood before that
// pass (world.fork rewinds the pass's starts), carrying the utilization
// integral and the completions reached so far; its queue is still the
// tick's, in the same order, so its sums add the same terms in the same
// order and its Rollout is bit-identical to the one a fork of the live
// engine would produce. Paranoid runs check that on every tick.
//
// Forks read the live engine (machine, running set, queue) and write
// only their own clones, so the main engine's observable state — and
// therefore the schedule — is byte-identical with and without
// lookahead. The Paranoid differential suite pins that.
func (e *engine) Lookahead(cands []sched.Scheduler, horizon units.Duration, workers int, budget time.Duration) ([]sched.Rollout, bool) {
	if e.sub || horizon <= 0 || len(cands) == 0 {
		return nil, false
	}
	la := &e.la
	n := len(cands)
	for len(la.worlds) < n {
		la.worlds = append(la.worlds, world{})
	}
	if cap(la.out) < n {
		la.out = make([]sched.Rollout, n)
	}
	la.out = la.out[:n]
	out := la.out
	// Read the queue once, before the fan-out: the accessor rebuilds a
	// cached view when a removal left it stale, which is a write the
	// concurrent rollouts must not race on.
	la.queue = e.queue.jobs()
	la.start, la.end = e.now, e.now.Add(horizon)
	la.deadline = time.Time{}
	if budget > 0 {
		la.deadline = time.Now().Add(budget)
	}
	for i := range out {
		out[i] = sched.Rollout{Horizon: horizon, TotalNodes: e.machine.TotalNodes()}
	}

	// The incumbent's untuned prefix. Nothing is cut off or rewound, and
	// the grids re-enter where the engine holds them: nextCheck is the
	// firing instant, so the fork runs the checkpoint-forced pass the
	// engine is about to run.
	w0 := &la.worlds[0]
	w0.fork(e, cands[0], la.queue, units.Forever, nil)
	w0.armGrids(e.nextTick, e.nextCheck, true)
	forked, tickAt, checkAt, err := w0.drive(&out[0], la.end, true)
	switch {
	case err != nil:
		// Every candidate would have failed in the same prefix.
		clear(out)
		return out, true
	case !forked:
		w0.score(&out[0], len(la.queue), la.start, la.end)
		for i := 1; i < n; i++ {
			out[i] = out[0]
			out[i].Passes, out[i].Shared = 0, true
		}
	default:
		// The prefix started nothing, so the divergent pass's starts are
		// the tick-queued jobs that no longer wait.
		sub0 := w0.sub
		shared := sub0.passes > 1
		la.begun = la.begun[:0]
		for s := range int32(len(la.queue)) {
			if c := sub0.table.At(s); c.State != job.Queued {
				a, _ := sub0.running.alloc(c.Slot())
				la.begun = append(la.begun, passBegin{c, a})
			}
		}
		done := w0.completed(la.start, la.end)
		for i := 1; i < n; i++ {
			w := &la.worlds[i]
			w.fork(sub0, cands[i], la.queue, units.Forever, la.begun)
			w.armGrids(tickAt, checkAt, true)
			out[i].UtilNodeSec = out[0].UtilNodeSec
			out[i].Completed = done
			out[i].Shared = shared
		}
		if workers <= 1 {
			for i := range out {
				_ = e.finishRollout(i)
			}
		} else {
			if la.finishFn == nil {
				la.finishFn = e.finishRollout
			}
			_ = parallel.ForEach(n, workers, la.finishFn)
		}
	}
	if e.cfg.Paranoid {
		e.auditLookahead(cands, horizon)
	}
	return out, true
}

// finishRollout drives candidate i's forked world from where Lookahead
// left it to the horizon and scores it. It only touches the candidate's
// own world and result slot, so the candidates run concurrently.
func (e *engine) finishRollout(i int) error {
	la := &e.la
	r := &la.out[i]
	// The first candidate (the caller's incumbent) always runs, so the
	// planner keeps a baseline even under an exhausted budget.
	if i > 0 && !la.deadline.IsZero() && time.Now().After(la.deadline) {
		*r = sched.Rollout{} // Valid=false
		return nil
	}
	w := &la.worlds[i]
	if _, _, _, err := w.drive(r, la.end, false); err != nil {
		return nil // Valid stays false
	}
	w.score(r, len(la.queue), la.start, la.end)
	return nil
}

// auditLookahead is the Paranoid check of prefix sharing: every valid
// rollout of a non-incumbent candidate is rolled out again the unshared
// way, forked straight from the live engine, and must match the shared
// one in every outcome field. The re-run is only the reference: the
// shared rollout it checks already ran the per-step structural checks
// of a Paranoid world, so the re-run skips them.
func (e *engine) auditLookahead(cands []sched.Scheduler, horizon units.Duration) {
	la := &e.la
	for i := 1; i < len(cands); i++ {
		got := la.out[i]
		if !got.Valid {
			continue
		}
		want := sched.Rollout{Horizon: horizon, TotalNodes: e.machine.TotalNodes()}
		w := &la.audit
		w.fork(e, cands[i], la.queue, units.Forever, nil)
		w.sub.cfg.Paranoid = false
		w.armGrids(e.nextTick, e.nextCheck, true)
		if _, _, _, err := w.drive(&want, la.end, false); err == nil {
			w.score(&want, len(la.queue), la.start, la.end)
		}
		want.Passes, want.Shared = got.Passes, got.Shared
		if got != want {
			panic(fmt.Sprintf("sim: what-if tick at %v: candidate %d (%s) rolled out from the incumbent's prefix as %+v, unshared as %+v",
				e.now, i, cands[i].Name(), got, want))
		}
	}
}

// drive steps the world's engine up to end, integrating busy nodes over
// each advance of its clock into r.UtilNodeSec and recording its pass
// count in r.Passes. Events beyond end stay unprocessed: the rollout
// scores the horizon window, nothing more.
//
// With prefix set, drive stops right after the first step whose pass
// was not Untuned or started a job, reports forked, and returns the
// grid instants that step was entered with — where a world forked from
// this one, with that pass's starts rewound, must re-enter the grids to
// replay the pass.
func (w *world) drive(r *sched.Rollout, end units.Time, prefix bool) (forked bool, tickAt, checkAt units.Time, err error) {
	sub := w.sub
	queued := sub.queue.len()
	for {
		it, ok := sub.events.Peek()
		if !ok || it.Time > end {
			break
		}
		busy, prev, passes := sub.machine.BusyNodes(), sub.now, sub.passes
		tickAt, checkAt = sub.nextTick, sub.nextCheck
		if _, err = sub.step(); err != nil {
			break
		}
		if sub.now > prev {
			r.UtilNodeSec += float64(busy) * float64(sub.now.Sub(prev))
		}
		if prefix && sub.passes > passes && (sub.queue.len() < queued || !passReport(sub.scheduler).Untuned) {
			forked = true
			break
		}
	}
	r.Passes = sub.passes
	return forked, tickAt, checkAt, err
}

// completed counts the world's jobs that finished within (start, end]:
// jobs running at the fork or started since alike.
func (w *world) completed(start, end units.Time) int {
	n := 0
	for s := range int32(w.sub.table.Len()) {
		c := w.sub.table.At(s)
		if (c.State == job.Finished || c.State == job.Killed) && c.End > start && c.End <= end {
			n++
		}
	}
	return n
}

// score closes a rollout that drive ran to end: the idle tail of the
// utilization integral, the completions, and the sums over the
// population queued at the fork, the world's first queued rows in
// queue order. Started jobs contribute their realized wait, stranded
// ones their wait truncated at the horizon.
func (w *world) score(r *sched.Rollout, queued int, start, end units.Time) {
	sub := w.sub
	if sub.now < end {
		r.UtilNodeSec += float64(sub.machine.BusyNodes()) * float64(end.Sub(sub.now))
	}
	r.Completed += w.completed(start, end)
	for s := range int32(queued) {
		c := sub.table.At(s)
		if c.State == job.Queued {
			r.LeftQueued++
			wait := end.Sub(c.Submit)
			r.WaitSum += wait
			r.BSLDSum += boundedSlowdown(wait, c.Walltime)
		} else {
			r.Started++
			wait := c.Start.Sub(c.Submit)
			r.WaitSum += wait
			r.BSLDSum += boundedSlowdown(wait, effectiveRuntime(c))
		}
	}
	r.Valid = true
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
