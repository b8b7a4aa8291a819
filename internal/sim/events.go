package sim

import (
	"fmt"

	"amjs/internal/eventq"
	"amjs/internal/job"
	"amjs/internal/units"
)

// eventQueue is the engine's pending-event set: a binary heap for
// completions, ticks and checkpoints, and a FIFO for arrivals. An event
// carries a job slot in tab (see job.Table), noSlot for ticks and
// checkpoints, so neither part holds a pointer for the collector to
// scan, and a heap item takes 24 bytes. Arrivals are pushed by
// engine.admit alone, which holds them to nondecreasing submit order
// (Run sorts its trace first), so the FIFO is already in the (Time,
// Seq) order the heap would impose on them, and a 100k-job burst at one
// instant costs a slice append per job instead of a heap sift. An
// arrival is due at its row's Submit. Peek and Pop merge the two heads
// on (Time, Kind); the heap never holds an arrival, so that pair always
// decides, and the merged order is exactly the one a single
// eventq.Queue gives.
type eventQueue struct {
	tab      *job.Table          // the rows the slots address
	heap     eventq.Queue[int32] // evEnd, evTick and evCheckpoint events
	arrivals []int32             // pending arrivals' slots, in submit order
	head     int                 // arrivals[head:] are pending
}

// noSlot is the payload of the events that concern no job.
const noSlot int32 = -1

// arrivalCompactFloor is the consumed-prefix length below which the
// arrival FIFO is never shifted down; see Pop.
const arrivalCompactFloor = 64

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return q.heap.Len() + len(q.arrivals) - q.head }

// Push schedules a completion (of the job in slot), tick or checkpoint
// (slot noSlot) event.
func (q *eventQueue) Push(t units.Time, kind int32, slot int32) {
	if kind == evArrive {
		panic("sim: arrivals go through PushArrival")
	}
	q.heap.Push(t, kind, slot)
}

// PushArrival schedules the arrival of the job in slot at its submit
// time. Arrivals must be pushed in nondecreasing submit order; an
// earlier one than the last pending arrival is a producer bug and
// panics.
func (q *eventQueue) PushArrival(slot int32) {
	if n := len(q.arrivals); n > q.head {
		j, last := q.tab.At(slot), q.tab.At(q.arrivals[n-1])
		if j.Submit < last.Submit {
			panic(fmt.Sprintf("sim: job %d arrives at %v, before the pending arrival at %v",
				j.ID, j.Submit, last.Submit))
		}
	}
	q.arrivals = append(q.arrivals, slot)
}

// arrivalFirst reports whether the next event is the head arrival, and
// the instant it is due.
func (q *eventQueue) arrivalFirst() (units.Time, bool) {
	if q.head == len(q.arrivals) {
		return 0, false
	}
	t := q.tab.At(q.arrivals[q.head]).Submit
	h, ok := q.heap.Peek()
	return t, !ok || t < h.Time || (t == h.Time && evArrive < h.Kind)
}

// Peek returns the earliest event without removing it; ok is false when
// none is pending.
func (q *eventQueue) Peek() (eventq.Item[int32], bool) {
	if t, ok := q.arrivalFirst(); ok {
		return eventq.Item[int32]{Time: t, Kind: evArrive, Payload: q.arrivals[q.head]}, true
	}
	return q.heap.Peek()
}

// Pop removes and returns the earliest event; ok is false when none is
// pending. The FIFO's storage is reused: it rewinds when it empties, and
// shifts its pending tail down once the consumed prefix dominates, so a
// session whose arrivals never quite run dry stays bounded too.
func (q *eventQueue) Pop() (eventq.Item[int32], bool) {
	t, ok := q.arrivalFirst()
	if !ok {
		return q.heap.Pop()
	}
	s := q.arrivals[q.head]
	q.head++
	switch {
	case q.head == len(q.arrivals):
		q.arrivals, q.head = q.arrivals[:0], 0
	case q.head >= arrivalCompactFloor && q.head > len(q.arrivals)/2:
		n := copy(q.arrivals, q.arrivals[q.head:])
		q.arrivals, q.head = q.arrivals[:n], 0
	}
	return eventq.Item[int32]{Time: t, Kind: evArrive, Payload: s}, true
}

// pending returns the pending arrivals' slots in submit order, as a
// view valid until the queue next changes.
func (q *eventQueue) pending() []int32 { return q.arrivals[q.head:] }

// Reset empties the queue, keeping both backing arrays for reuse.
func (q *eventQueue) Reset() {
	q.heap.Reset()
	q.arrivals, q.head = q.arrivals[:0], 0
}
