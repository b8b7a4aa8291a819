package sim

import (
	"fmt"

	"amjs/internal/eventq"
	"amjs/internal/job"
	"amjs/internal/units"
)

// eventQueue is the engine's pending-event set: a binary heap for
// completions, ticks and checkpoints, and a FIFO for arrivals. Arrivals
// are pushed by engine.admit alone, which holds them to nondecreasing
// submit order (Run sorts its trace first), so the FIFO is
// already in the (Time, Seq) order the heap would impose on them, and a
// 100k-job burst at one instant costs a slice append per job instead of
// a heap sift. Peek and Pop merge the two heads on (Time, Kind); the heap
// never holds an arrival, so that pair always decides, and the merged
// order is exactly the one a single eventq.Queue gives.
type eventQueue struct {
	heap     eventq.Queue[*job.Job] // evEnd, evTick and evCheckpoint events
	arrivals []*job.Job             // pending arrivals, each due at its Submit
	head     int                    // arrivals[head:] are pending
}

// arrivalCompactFloor is the consumed-prefix length below which the
// arrival FIFO is never shifted down; see Pop.
const arrivalCompactFloor = 64

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return q.heap.Len() + len(q.arrivals) - q.head }

// Push schedules a completion, tick or checkpoint event.
func (q *eventQueue) Push(t units.Time, kind int, payload *job.Job) {
	if kind == evArrive {
		panic("sim: arrivals go through PushArrival")
	}
	q.heap.Push(t, kind, payload)
}

// PushArrival schedules j's arrival at its submit time. Arrivals must be
// pushed in nondecreasing submit order; an earlier one than the last
// pending arrival is a producer bug and panics.
func (q *eventQueue) PushArrival(j *job.Job) {
	if n := len(q.arrivals); n > q.head && j.Submit < q.arrivals[n-1].Submit {
		panic(fmt.Sprintf("sim: job %d arrives at %v, before the pending arrival at %v",
			j.ID, j.Submit, q.arrivals[n-1].Submit))
	}
	q.arrivals = append(q.arrivals, j)
}

// arrivalFirst reports whether the next event is the head arrival.
func (q *eventQueue) arrivalFirst() bool {
	if q.head == len(q.arrivals) {
		return false
	}
	h, ok := q.heap.Peek()
	if !ok {
		return true
	}
	t := q.arrivals[q.head].Submit
	return t < h.Time || (t == h.Time && evArrive < h.Kind)
}

// Peek returns the earliest event without removing it; ok is false when
// none is pending.
func (q *eventQueue) Peek() (eventq.Item[*job.Job], bool) {
	if q.arrivalFirst() {
		j := q.arrivals[q.head]
		return eventq.Item[*job.Job]{Time: j.Submit, Kind: evArrive, Payload: j}, true
	}
	return q.heap.Peek()
}

// Pop removes and returns the earliest event; ok is false when none is
// pending. The FIFO's storage is reused: it rewinds when it empties, and
// shifts its pending tail down once the consumed prefix dominates, so a
// session whose arrivals never quite run dry stays bounded too.
func (q *eventQueue) Pop() (eventq.Item[*job.Job], bool) {
	if !q.arrivalFirst() {
		return q.heap.Pop()
	}
	j := q.arrivals[q.head]
	q.arrivals[q.head] = nil // release for GC
	q.head++
	switch {
	case q.head == len(q.arrivals):
		q.arrivals, q.head = q.arrivals[:0], 0
	case q.head >= arrivalCompactFloor && q.head > len(q.arrivals)/2:
		n := copy(q.arrivals, q.arrivals[q.head:])
		clear(q.arrivals[n:])
		q.arrivals, q.head = q.arrivals[:n], 0
	}
	return eventq.Item[*job.Job]{Time: j.Submit, Kind: evArrive, Payload: j}, true
}

// Reset empties the queue, keeping both backing arrays for reuse.
func (q *eventQueue) Reset() {
	q.heap.Reset()
	clear(q.arrivals)
	q.arrivals, q.head = q.arrivals[:0], 0
}
