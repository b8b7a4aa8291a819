package sim

import (
	"fmt"

	"amjs/internal/job"
	"amjs/internal/machine"
)

// slotPos maps a job slot to the job's place in the engine's queue or
// running set (see jobQueue and runSet). A job is in at most one of the
// two, so one table serves both. It grows a job.ChunkRows chunk at a
// time, in step with the job table, and a chunk is never reallocated.
type slotPos [][]int32

// set records i as slot s's place.
func (p *slotPos) set(s, i int32) {
	c := int(s >> job.ChunkBits)
	for len(*p) <= c {
		*p = append(*p, make([]int32, job.ChunkRows))
	}
	(*p)[c][s&(job.ChunkRows-1)] = i
}

// get returns the place last recorded for slot s: a hint that the
// caller must confirm against the list it indexes, which holds s there
// only while the place is current. A slot whose chunk was never
// allocated reads -1; one in an allocated chunk but never recorded
// reads 0.
func (p slotPos) get(s int32) int32 {
	if c := int(s >> job.ChunkBits); s >= 0 && c < len(p) {
		return p[c][s&(job.ChunkRows-1)]
	}
	return -1
}

// jobQueue holds the waiting jobs' slots in arrival order with O(1)
// removal.
//
// The simulator dequeues jobs in whatever order the policy starts them,
// not FIFO, so a plain slice costs an O(n) splice per start. Here
// remove finds the job's entry through the shared slotPos and marks it
// dead (-1), so no dead entry ever names a slot, and a row the engine
// recycles (a sink-driven stream's, see finish) can never reappear
// through one. Dead entries are skipped by jobs() and squeezed out
// lazily once they dominate, keeping both push and remove amortized
// O(1) while preserving arrival order.
//
// jobs() returns a cached compact view of the rows, rebuilt only after
// a removal. The view is shared: callers (schedulers, via
// sched.Env.Queue) must treat it as read-only and must not retain it
// across engine mutations — the backing array is reused in place.
type jobQueue struct {
	tab   *job.Table // the rows the slots address
	pos   *slotPos   // each queued slot's index in slots
	slots []int32    // arrival order; -1 marks a departed job
	live  int        // entries still naming a queued job
	view  []*job.Job // cached compact snapshot of the live entries
	stale bool       // view needs rebuilding
}

// compactionFloor is the entry count below which the queue never
// bothers compacting; tiny queues just rebuild the view.
const compactionFloor = 32

// push appends a Queued job's slot in arrival order. An arrival extends
// a current view in place: a caller holding the old view keeps its
// length and never sees the new entry.
func (q *jobQueue) push(s int32) {
	q.pos.set(s, int32(len(q.slots)))
	q.slots = append(q.slots, s)
	q.live++
	if !q.stale {
		q.view = append(q.view, q.tab.At(s))
	}
}

// remove withdraws slot s from the queue, preserving the order of the
// rest. s must be queued.
func (q *jobQueue) remove(s int32) {
	i := q.pos.get(s)
	if i < 0 || int(i) >= len(q.slots) || q.slots[i] != s {
		panic(fmt.Sprintf("sim: queue removal of job %d, which is not queued", q.tab.At(s).ID))
	}
	q.slots[i] = -1
	q.live--
	q.stale = true
	if len(q.slots) >= compactionFloor && q.live < len(q.slots)/2 {
		q.compact()
	}
}

// compact squeezes the dead entries out of the slot array in place.
func (q *jobQueue) compact() {
	w := int32(0)
	for _, s := range q.slots {
		if s >= 0 {
			q.slots[w] = s
			q.pos.set(s, w)
			w++
		}
	}
	q.slots = q.slots[:w]
}

// len reports the number of queued jobs.
func (q *jobQueue) len() int { return q.live }

// jobs returns the queued jobs in arrival order as a shared read-only
// view, valid until the queue next changes. Slots come mostly in
// increasing order, so the rebuild looks a chunk up only when the slot
// leaves the last one.
func (q *jobQueue) jobs() []*job.Job {
	if q.stale {
		q.view = q.view[:0]
		var rows []job.Job
		cur := -1
		for _, s := range q.slots {
			if s < 0 {
				continue
			}
			if c := int(s >> job.ChunkBits); c != cur {
				rows, cur = q.tab.Chunk(c), c
			}
			q.view = append(q.view, &rows[s&(job.ChunkRows-1)])
		}
		q.stale = false
	}
	return q.view
}

// reset empties the queue, keeping the backing storage so a hot caller
// (a world's reused sub-engine) can refill it cheaply.
func (q *jobQueue) reset() {
	q.slots = q.slots[:0]
	clear(q.view)
	q.view = q.view[:0]
	q.live = 0
	q.stale = false
}

// runSet is the engine's running set: the running jobs' slots and their
// allocations as two dense lists, and each one's place in them through
// the shared slotPos. Removal swaps the last entry into the gap, so the
// lists' order is arbitrary; a reader that needs an order sorts.
type runSet struct {
	pos    *slotPos
	slots  []int32
	allocs []machine.Alloc
}

// len reports the number of running jobs.
func (r *runSet) len() int { return len(r.slots) }

// add records slot s as running on allocation a.
func (r *runSet) add(s int32, a machine.Alloc) {
	r.pos.set(s, int32(len(r.slots)))
	r.slots = append(r.slots, s)
	r.allocs = append(r.allocs, a)
}

// index returns slot s's place in the lists; ok is false when s is not
// running.
func (r *runSet) index(s int32) (int, bool) {
	i := r.pos.get(s)
	return int(i), i >= 0 && int(i) < len(r.slots) && r.slots[i] == s
}

// alloc returns the allocation slot s runs on; ok is false when s is
// not running.
func (r *runSet) alloc(s int32) (machine.Alloc, bool) {
	if i, ok := r.index(s); ok {
		return r.allocs[i], true
	}
	return 0, false
}

// remove takes slot s out of the running set and returns its
// allocation; ok is false, and nothing changes, when s is not running.
func (r *runSet) remove(s int32) (machine.Alloc, bool) {
	i, ok := r.index(s)
	if !ok {
		return 0, false
	}
	a := r.allocs[i]
	last := len(r.slots) - 1
	if i != last {
		moved := r.slots[last]
		r.slots[i], r.allocs[i] = moved, r.allocs[last]
		r.pos.set(moved, int32(i))
	}
	r.slots, r.allocs = r.slots[:last], r.allocs[:last]
	return a, true
}

// reset empties the running set, keeping its storage.
func (r *runSet) reset() {
	r.slots, r.allocs = r.slots[:0], r.allocs[:0]
}
