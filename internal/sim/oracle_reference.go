package sim

import (
	"sort"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/units"
)

// fairStartNaive is the reference fairness oracle: one fresh, fully
// cloned nested engine per target job, with pass elision disabled, as
// the engine computed fair starts before the batched, reuse-everything
// oracle existed. It is reachable only through the naiveOracle test
// hook; the oracle-equivalence suites prove fairOracle produces
// bit-identical fair starts. It shares nothing with world.fork on
// purpose — a reference built from the code under test proves nothing.
func (e *engine) fairStartNaive(targets []*job.Job) {
	for _, target := range targets {
		sub := &engine{
			cfg:       e.cfg,
			now:       e.now,
			machine:   e.machine.Clone(),
			scheduler: e.scheduler.Clone(),
			running:   make(map[*job.Job]machine.Alloc),
			collector: e.collector, // read-only use; never written in sub runs
			sub:       true,
			dirty:     true,
		}
		sub.cfg.Trace = nil
		sub.cfg.disableElision = true // reference semantics: every pass runs

		var clone *job.Job
		for _, j := range e.queue.jobs() {
			c := j.Clone()
			sub.queue.push(c)
			if j == target {
				clone = c
			}
		}

		// Seed the running jobs' end events in ID order, matching the
		// batched oracle's deterministic insertion order.
		order := make([]*job.Job, 0, len(e.running))
		for j := range e.running {
			order = append(order, j)
		}
		sort.Slice(order, func(i, k int) bool { return order[i].ID < order[k].ID })
		for _, j := range order {
			c := j.Clone()
			sub.running[c] = e.running[j] // machine clone preserves allocation handles
			effective := c.Runtime
			if effective > c.Walltime {
				effective = c.Walltime
			}
			sub.events.Push(c.Start.Add(effective), evEnd, c)
		}

		if e.cfg.SchedulePeriod > 0 {
			// Same grid-faithful world as the batched oracle: the fair
			// world schedules on the main engine's tick and checkpoint
			// grids (a nested checkpoint forces a pass, never a retune).
			sub.events.Push(e.nextTick, evTick, nil)
			sub.events.Push(e.nextCheck, evCheckpoint, nil)
		} else {
			// Event-driven closed worlds run a pass at the fork instant —
			// the targets' arrival batch — matching the batched oracle.
			sub.events.Push(e.now, evTick, nil)
		}

		err := sub.run(func() bool { return clone.State != job.Queued })
		if err != nil || (clone.State != job.Running && clone.State != job.Finished && clone.State != job.Killed) {
			e.fairStarts[target.ID] = units.Forever // should not happen: the queue always drains
			continue
		}
		e.fairStarts[target.ID] = clone.Start
	}
}
