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
// A forked world shares nothing mutable with its parent: every buffer it
// writes lives on the world, and it holds no pointer into the parent's
// state. That is what lets the what-if forks of one parent run
// concurrently with each other, and a diverged fairness world run on its
// own goroutine while the parent keeps scheduling (see fairOracle). All
// of the buffers are reused from fork to fork — the nested engine with
// its event queue and queue storage, the in-place machine clone, the job
// arena, the scheduler cloned into the previous fork's retired one — so
// a warm fork allocates nothing.
type world struct {
	sub   *engine    // the nested engine, rebuilt in place by every fork
	arena []job.Job  // the fork's job clones: its queue in arrival order, then its running set
	order []*job.Job // the parent's running set in ID order
}

// passBegin records one start performed during a scheduling pass:
// enough to rewind it when forking a world from the pre-pass state, and
// to flush its accounting once the pass's outcome is known.
type passBegin struct {
	j *job.Job
	a machine.Alloc
}

// inPlaceCloner is implemented by schedulers that can clone themselves
// into a retired instance of the same type, which keeps its own scratch
// buffers (core.MetricAware and core.Tuner do) — the scheduler
// counterpart of Machine.CloneInto. A nil or mistyped dst gets a plain
// Clone. It stays optional because only those two hold scratch worth
// keeping: the sched package's policies hold none, so a plain Clone is
// already all they need.
type inPlaceCloner interface {
	CloneInto(dst sched.Scheduler) sched.Scheduler
}

// cloneScheduler clones s, into dst's storage when s supports in-place
// cloning and dst is a retired instance (nil for none).
func cloneScheduler(s, dst sched.Scheduler) sched.Scheduler {
	if c, ok := s.(inPlaceCloner); ok {
		return c.CloneInto(dst)
	}
	return s.Clone()
}

// fork rebuilds the world from parent's state at its current instant,
// to be scheduled by a clone of s that the world owns (the oracle passes
// the frozen policy, the tuner a candidate; neither is used by the world
// itself, so the caller may keep using s). The clone lands in the
// previous fork's retired scheduler where s supports that.
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
	sub.machine = parent.machine.CloneInto(sub.machine)
	for _, pb := range begun {
		sub.machine.Release(pb.a, parent.now)
	}
	sub.scheduler = cloneScheduler(s, sub.scheduler)
	sub.collector = nil // a nested engine samples, retunes and reports nothing
	sub.events.Reset()
	sub.queue.reset()
	clear(sub.running)
	sub.dirty = true
	sub.lastDelta = false
	sub.lastQuiet = false
	sub.processed = 0
	sub.passes = 0

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
		sub.nextTick, sub.nextCheck = tickAt, checkAt
	} else if forkPass {
		sub.events.Push(sub.now, evTick, nil)
	}
}
