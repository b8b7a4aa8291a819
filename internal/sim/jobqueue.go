package sim

import "amjs/internal/job"

// jobQueue holds the waiting jobs in arrival order with O(1) removal.
//
// The simulator dequeues jobs in whatever order the policy starts them,
// not FIFO, so a plain slice costs an O(n) splice per start. Here each
// job occupies a slot, and a slot is live exactly while its job is
// Queued: the engine moves a job out of Queued (Running, Cancelled)
// before it calls remove, so remove only counts the departure and no
// job → slot index is needed. Dead slots are skipped by jobs() and
// squeezed out lazily once they dominate, keeping both push and remove
// amortized O(1) while preserving arrival order.
//
// jobs() returns a cached compact view that is rebuilt only after the
// queue changed. The view is shared: callers (schedulers, via
// sched.Env.Queue) must treat it as read-only and must not retain it
// across engine mutations — the backing array is reused in place.
type jobQueue struct {
	slots []*job.Job // arrival order; a slot whose job left Queued is dead
	live  int        // slots still holding a Queued job
	view  []*job.Job // cached compact snapshot of the live slots
	stale bool       // view needs rebuilding
}

// compactionFloor is the slot count below which the queue never bothers
// compacting; tiny queues just rebuild the view.
const compactionFloor = 32

// push appends a Queued job in arrival order.
func (q *jobQueue) push(j *job.Job) {
	q.slots = append(q.slots, j)
	q.live++
	q.stale = true
}

// remove records the departure of a queued job whose state the caller
// has already moved out of Queued, preserving the order of the rest.
func (q *jobQueue) remove(j *job.Job) {
	if j.State == job.Queued {
		panic("sim: queue removal of a job still in state Queued")
	}
	q.live--
	q.stale = true
	if len(q.slots) >= compactionFloor && q.live < len(q.slots)/2 {
		q.compact()
	}
}

// compact squeezes the dead slots out of the slot array in place.
func (q *jobQueue) compact() {
	w := 0
	for _, j := range q.slots {
		if j.State == job.Queued {
			q.slots[w] = j
			w++
		}
	}
	clear(q.slots[w:]) // release for GC
	q.slots = q.slots[:w]
}

// len reports the number of queued jobs.
func (q *jobQueue) len() int { return q.live }

// jobs returns the queued jobs in arrival order as a shared read-only
// view, valid until the queue next changes.
func (q *jobQueue) jobs() []*job.Job {
	if q.stale {
		q.view = q.view[:0]
		for _, j := range q.slots {
			if j.State == job.Queued {
				q.view = append(q.view, j)
			}
		}
		q.stale = false
	}
	return q.view
}

// reset empties the queue, keeping the backing storage so a hot caller
// (the fairness oracle's reused sub-engine) can refill it cheaply.
func (q *jobQueue) reset() {
	clear(q.slots)
	q.slots = q.slots[:0]
	clear(q.view)
	q.view = q.view[:0]
	q.live = 0
	q.stale = false
}
