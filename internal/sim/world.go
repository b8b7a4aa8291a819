package sim

import (
	"cmp"
	"slices"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// world is one reusable closed-world fork of an engine: the state a
// live engine would evolve from if no job arrived after a cutoff. Both
// counterfactuals the simulator answers are runs of such a world — the
// fairness oracle's no-later-arrival schedules (oracle.go) and the
// what-if tuner's candidate rollouts (whatif.go) — and this file is the
// one place, the reference oracle aside, that knows how a live engine
// becomes one.
//
// Every buffer a fork writes lives on the world, never on the parent,
// because the what-if forks of one parent run concurrently. All of them
// are reused from fork to fork — the nested engine with its event queue
// and queue storage, the in-place machine clone, the job arena, the
// retired scheduler's scratch — so a steady fork cadence allocates only
// what the caller's scheduler clone does.
type world struct {
	sub   *engine         // the nested engine, rebuilt in place by every fork
	arena []job.Job       // the fork's job clones: its queue in arrival order, then its running set
	order []*job.Job      // the parent's running set in ID order
	prev  sched.Scheduler // the previous fork's scheduler, kept only as a scratch-buffer donor
}

// passBegin records one start performed during a scheduling pass:
// enough to rewind it when forking a world from the pre-pass state, and
// to flush its accounting once the pass's outcome is known.
type passBegin struct {
	j *job.Job
	a machine.Alloc
}

// scratchAdopter is implemented by schedulers whose fresh clones can
// transplant warm scratch buffers from a retired clone of the same
// scheduler (core.MetricAware and its tuner do).
type scratchAdopter interface {
	AdoptScratch(sched.Scheduler)
}

// fork rebuilds the world from parent's state at its current instant,
// to be scheduled by s — a scheduler the world owns from here on (the
// oracle passes a clone of the frozen policy, the tuner a candidate).
// The world holds queueView filtered to jobs submitted at or before
// cutoff, and parent's machine and running set with the starts in begun
// rewound: begun carries the starts a scheduling pass already performed
// that a world diverging from that very pass must not see, so their
// nodes are free again and their jobs wait in the queue (queueView is
// then the pre-pass snapshot that still lists them). fork only reads
// parent, and seeds no scheduling event: armGrids does, and the caller
// decides how far the world runs.
func (w *world) fork(parent *engine, s sched.Scheduler, queueView []*job.Job, cutoff units.Time, begun []passBegin) *engine {
	if w.sub == nil {
		w.sub = &engine{running: make(map[*job.Job]machine.Alloc), sub: true}
	}
	sub := w.sub
	sub.cfg = parent.cfg
	sub.cfg.Trace = nil // nested runs never touch the trace path
	sub.now = parent.now
	sub.machine = machine.CloneMachineInto(parent.machine, sub.machine)
	for _, pb := range begun {
		sub.machine.Release(pb.a, parent.now)
	}
	sub.scheduler = s
	if ad, ok := s.(scratchAdopter); ok && w.prev != nil {
		ad.AdoptScratch(w.prev)
	}
	w.prev = s
	sub.collector = parent.collector // read-only use; never written in sub runs
	sub.events.Reset()
	sub.queue.reset()
	clear(sub.running)
	sub.dirty = true
	sub.lastDelta = false
	sub.lastQuiet = false
	sub.processed = 0

	wasBegun := func(j *job.Job) bool {
		for _, pb := range begun {
			if pb.j == j {
				return true
			}
		}
		return false
	}

	// Clone the live jobs into the arena, queue first (the queue view
	// and the seeded running set are disjoint). The arena is sized up
	// front so the pointers handed to the sub-engine stay valid as it
	// fills; the headroom keeps a slowly growing system from
	// reallocating it on every fork.
	n := len(queueView) + len(parent.running)
	if cap(w.arena) < n {
		w.arena = make([]job.Job, 0, n+n/2+8)
	}
	arena := w.arena[:0]
	for _, j := range queueView {
		if j.Submit > cutoff {
			continue // an extra: the closed world never sees it
		}
		arena = append(arena, *j)
		c := &arena[len(arena)-1]
		if wasBegun(j) {
			c.State = job.Queued
			c.Start = 0
		}
		sub.queue.push(c)
	}

	// Seed the running jobs' end events in ID order: the heap breaks
	// same-instant ties by insertion sequence, so a deterministic
	// insertion order keeps nested runs reproducible.
	w.order = w.order[:0]
	for j := range parent.running {
		if !wasBegun(j) {
			w.order = append(w.order, j)
		}
	}
	slices.SortFunc(w.order, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	for _, j := range w.order {
		arena = append(arena, *j)
		c := &arena[len(arena)-1]
		sub.running[c] = parent.running[j] // machine clone preserves allocation handles
		sub.events.Push(c.Start.Add(effectiveRuntime(c)), evEnd, c)
	}
	w.arena = arena
	return sub
}

// armGrids seeds a freshly forked world's scheduling events. In
// periodic mode the world keeps scheduling on the parent's tick and
// checkpoint grids (checkpoints force a pass but never retune in a
// nested run — the policy stays frozen); the caller passes the grid
// instants as of the fork point, so a grid event mid-processing in the
// parent's step re-enters at the current instant and the world
// reproduces the pass the parent is executing or about to execute.
//
// Event-driven mode schedules after every event batch, and when the
// fork instant is such a batch in the closed world — an arrival of its
// own, or a completion that fired here — the fork must execute a pass
// at it (forkPass), or a job the closed world could start immediately
// sits queued until the next completion (or forever, on an otherwise
// idle machine — the fork's event queue would be empty and the run would exit
// without ever scheduling). The tick is not re-armed when the period is
// zero, so it fires exactly once. A fork at an instant the closed world
// has no event at (forkPass false) seeds nothing: its next pass is its
// next completion.
func (w *world) armGrids(tickAt, checkAt units.Time, forkPass bool) {
	sub := w.sub
	if sub.cfg.SchedulePeriod > 0 {
		sub.events.Push(tickAt, evTick, nil)
		sub.events.Push(checkAt, evCheckpoint, nil)
	} else if forkPass {
		sub.events.Push(sub.now, evTick, nil)
	}
}
