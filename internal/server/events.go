// Streaming event feed: GET /v1/events serves job-state transitions
// as newline-delimited JSON over a long-lived response, so clients
// watch the schedule evolve without polling /v1/queue.
//
// Semantics:
//
//   - Ordering: events carry a global sequence number and are
//     published in engine processing order — the authoritative order
//     of the schedule. Each subscriber sees its events in that order.
//   - Drop policy: every subscriber owns a fixed-size ring; a consumer
//     that reads slower than the daemon publishes loses the OLDEST
//     undelivered events. Drops are reported in-band: the next
//     delivered line carries "dropped": n, and the sequence numbers
//     expose the gap. The publisher never blocks on a slow consumer —
//     the scheduling loop's latency is independent of client health.
package server

import (
	"sync"
	"sync/atomic"
)

// JobEvent is one NDJSON line of the feed.
type JobEvent struct {
	Seq   uint64 `json:"seq"`
	TSec  int64  `json:"t_sec"`
	ID    int    `json:"id"`
	User  string `json:"user,omitempty"`
	Nodes int    `json:"nodes,omitempty"`
	State string `json:"state"`
	// Dropped counts events this subscriber lost to the ring bound
	// since the previous delivered line (slow-consumer drop policy).
	Dropped uint64 `json:"dropped,omitempty"`
}

// defaultEventRing is the per-subscriber ring capacity.
const defaultEventRing = 1024

// eventHub fans job events out to subscribers.
type eventHub struct {
	ring int

	mu   sync.Mutex
	seq  uint64
	subs map[*subscriber]struct{}

	nsubs     atomic.Int64 // fast-path emptiness check for the publisher
	published atomic.Uint64
	dropped   atomic.Uint64
	filtered  atomic.Uint64
}

// subscriber is one feed connection's buffered view. user and state,
// when non-empty, restrict the feed to matching events: mismatches are
// filtered before the ring enqueue, so a narrow subscription never
// evicts the events it actually wants.
type subscriber struct {
	user  string
	state string

	mu      sync.Mutex
	ring    []JobEvent
	start   int // index of oldest buffered event
	n       int // buffered count
	dropped uint64
	wake    chan struct{} // capacity 1
}

// wants reports whether the event passes the subscriber's filters.
func (s *subscriber) wants(ev *JobEvent) bool {
	return (s.user == "" || s.user == ev.User) &&
		(s.state == "" || s.state == ev.State)
}

func newEventHub(ring int) *eventHub {
	if ring <= 0 {
		ring = defaultEventRing
	}
	return &eventHub{ring: ring, subs: make(map[*subscriber]struct{})}
}

// active reports whether anyone is listening — the publisher's
// zero-cost fast path when the feed is idle.
func (h *eventHub) active() bool { return h.nsubs.Load() > 0 }

// publish assigns the event its sequence number and offers it to every
// subscriber, evicting each full ring's oldest entry. Never blocks.
func (h *eventHub) publish(ev JobEvent) {
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	for s := range h.subs {
		if !s.wants(&ev) {
			h.filtered.Add(1)
			continue
		}
		s.mu.Lock()
		if s.n == len(s.ring) {
			s.start = (s.start + 1) % len(s.ring)
			s.n--
			s.dropped++
			h.dropped.Add(1)
		}
		s.ring[(s.start+s.n)%len(s.ring)] = ev
		s.n++
		s.mu.Unlock()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	// Counted once every ring holds the event, so a reader that sees the
	// count also finds the event in its ring.
	h.published.Add(1)
	h.mu.Unlock()
}

// subscribe registers a new ring-buffered subscriber. Empty filter
// strings match everything.
func (h *eventHub) subscribe(user, state string) *subscriber {
	s := &subscriber{
		user:  user,
		state: state,
		ring:  make([]JobEvent, h.ring),
		wake:  make(chan struct{}, 1),
	}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	h.nsubs.Add(1)
	return s
}

func (h *eventHub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	h.nsubs.Add(-1)
}

// take drains up to len(out) buffered events into out and returns the
// count plus the number of events dropped since the last take. It does
// not block; callers wait on s.wake first.
func (s *subscriber) take(out []JobEvent) (n int, dropped uint64) {
	s.mu.Lock()
	for n < len(out) && s.n > 0 {
		out[n] = s.ring[s.start]
		s.start = (s.start + 1) % len(s.ring)
		s.n--
		n++
	}
	dropped = s.dropped
	s.dropped = 0
	s.mu.Unlock()
	return n, dropped
}
