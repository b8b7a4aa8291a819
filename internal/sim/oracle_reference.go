package sim

import (
	"sort"

	"amjs/internal/job"
	"amjs/internal/units"
)

// fairStartNaive is the reference fairness oracle: one fresh, fully
// cloned nested engine per target job, with pass elision disabled, as
// the engine computed fair starts before the batched, reuse-everything
// oracle existed. It is reachable only through the naiveOracle test
// hook; the oracle-equivalence suites prove fairOracle produces
// bit-identical fair starts. It shares nothing with world.fork on
// purpose — a reference built from the code under test proves nothing.
func (e *engine) fairStartNaive(targets []int32) {
	for _, ts := range targets {
		target := e.table.At(ts)
		sub := &engine{
			cfg:       e.cfg,
			now:       e.now,
			machine:   e.machine.Clone(),
			scheduler: e.scheduler.Clone(),
			collector: e.collector, // read-only use; never written in sub runs
			sub:       true,
			dirty:     true,
		}
		sub.bind()
		sub.cfg.Trace = nil
		sub.cfg.disableElision = true // reference semantics: every pass runs

		var clone *job.Job
		for _, j := range e.queue.jobs() {
			c := sub.table.Add(j)
			sub.queue.push(c.Slot())
			if j == target {
				clone = c
			}
		}

		// Seed the running jobs' end events in ID order, matching the
		// batched oracle's deterministic insertion order.
		order := make([]int, e.running.len())
		for i := range order {
			order[i] = i
		}
		id := func(i int) int { return e.table.At(e.running.slots[i]).ID }
		sort.Slice(order, func(i, k int) bool { return id(order[i]) < id(order[k]) })
		for _, i := range order {
			c := sub.table.Add(e.table.At(e.running.slots[i]))
			sub.running.add(c.Slot(), e.running.allocs[i]) // machine clone preserves allocation handles
			effective := c.Runtime
			if effective > c.Walltime {
				effective = c.Walltime
			}
			sub.events.Push(c.Start.Add(effective), evEnd, c.Slot())
		}

		if e.cfg.SchedulePeriod > 0 {
			// Same grid-faithful world as the batched oracle: the fair
			// world schedules on the main engine's tick and checkpoint
			// grids (a nested checkpoint forces a pass, never a retune).
			sub.events.Push(e.nextTick, evTick, noSlot)
			sub.events.Push(e.nextCheck, evCheckpoint, noSlot)
		} else {
			// Event-driven closed worlds run a pass at the fork instant —
			// the targets' arrival batch — matching the batched oracle.
			sub.events.Push(e.now, evTick, noSlot)
		}

		err := sub.run(func() bool { return clone.State != job.Queued })
		if err != nil || (clone.State != job.Running && clone.State != job.Finished && clone.State != job.Killed) {
			e.fairStarts[target.ID] = units.Forever // should not happen: the queue always drains
			continue
		}
		e.fairStarts[target.ID] = clone.Start
	}
}
