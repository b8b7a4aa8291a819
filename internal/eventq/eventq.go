// Package eventq implements the time-ordered event queue driving the
// discrete-event simulator.
//
// Events are ordered by (time, kind, insertion sequence): ties at the
// same instant are broken first by kind — so that, e.g., job completions
// can be processed before arrivals at the same timestamp, making freed
// nodes visible to the arriving job's scheduling pass — and then by
// insertion order, which keeps the simulation fully deterministic.
package eventq

import (
	"amjs/internal/units"
)

// Item is a scheduled event carrying an arbitrary payload. Kind is 32
// bits wide and sits beside the payload, so an item with a 32-bit
// payload (the simulator's job slots) takes 24 bytes.
type Item[T any] struct {
	Time    units.Time
	Seq     int64
	Kind    int32
	Payload T
}

// Queue is a stable min-heap of events. The zero value is ready to use.
type Queue[T any] struct {
	h   itemHeap[T]
	seq int64
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push schedules an event. The heap is hand-rolled rather than built on
// container/heap: the standard interface passes items through `any`,
// boxing every Push and Pop onto the garbage-collected heap, which at
// full-Intrepid scale was two allocations per simulated event.
func (q *Queue[T]) Push(t units.Time, kind int32, payload T) {
	q.seq++
	q.h = append(q.h, Item[T]{Time: t, Kind: kind, Seq: q.seq, Payload: payload})
	q.h.siftUp(len(q.h) - 1)
}

// Pop removes and returns the earliest event; ok is false when empty.
func (q *Queue[T]) Pop() (it Item[T], ok bool) {
	n := len(q.h)
	if n == 0 {
		return it, false
	}
	it = q.h[0]
	q.h[0] = q.h[n-1]
	var zero T
	q.h[n-1].Payload = zero // release the payload reference
	q.h = q.h[:n-1]
	if n > 1 {
		q.h.siftDown(0)
	}
	return it, true
}

// Peek returns the earliest event without removing it; ok is false when
// empty.
func (q *Queue[T]) Peek() (it Item[T], ok bool) {
	if len(q.h) == 0 {
		return it, false
	}
	return q.h[0], true
}

// Reset empties the queue for reuse, keeping the backing storage so a
// hot caller (the fairness oracle's per-submission sub-simulations) can
// refill it without reallocating.
func (q *Queue[T]) Reset() {
	var zero T
	for i := range q.h {
		q.h[i].Payload = zero // release payload references
	}
	q.h = q.h[:0]
	q.seq = 0
}

// Clone returns an independent copy of the queue (payloads are copied
// shallowly; remap them afterwards if they hold pointers).
func (q *Queue[T]) Clone() *Queue[T] {
	c := &Queue[T]{seq: q.seq}
	c.h = append(itemHeap[T](nil), q.h...)
	return c
}

type itemHeap[T any] []Item[T]

func (h itemHeap[T]) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Seq < b.Seq
}

func (h itemHeap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h itemHeap[T]) siftDown(i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
