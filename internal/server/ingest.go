// Sharded ingest lanes: the daemon's high-throughput admission path.
//
// The single-submit path costs one engine-lock acquisition per job;
// under heavy load the lock, not the engine, bounds throughput. The
// lanes amortize it: submissions are staged into per-shard bounded
// queues (sharded by the submitting user, so one chatty user cannot
// serialize everyone), each stamped with a ticket from one global
// counter, drawn under the shard lock, and a single flusher swaps out
// every shard's run, merges the runs into ticket order, and injects the
// whole batch into the sim.Live session under ONE lock acquisition.
//
// Ordering contract (what keeps speedup=∞ batch-equivalence
// byte-identical): the tickets fix a total admission order in which
// each caller's items keep their order, exactly as serialized single
// submits would; interleaving across concurrent callers is by arrival
// at the counter. The flusher injects strictly in ticket order, because
// every gathered batch is a prefix of it (see gather). Batching changes
// only when the lock is taken, never what the engine observes.
// TestIngestDifferential pins this against sim.Run across machines,
// policies, modes, and batch sizes.
//
// Nothing here allocates per job: items point at the caller's request
// and result slots, and the shards' runs and the merge buffer are
// reused across flushes.
//
// Backpressure: a full shard fails the item with ErrOverloaded rather
// than blocking the HTTP handler — the caller sees a per-item error
// and retries; the queue bound caps daemon memory under overload.
package server

import (
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// ErrOverloaded reports an ingest shard at capacity.
var ErrOverloaded = errors.New("server: ingest queue full, retry later")

// SubmitResult is one item's outcome from a batch submission.
type SubmitResult struct {
	Status JobStatus
	Err    error
}

// submitItem is one staged submission awaiting the flusher. The
// pointers reach into the staging caller, which blocks until the item
// is flushed.
type submitItem struct {
	req    *SubmitRequest
	res    *SubmitResult   // result slot, written by the flusher
	wg     *sync.WaitGroup // request-level completion latch
	ticket uint64
}

// ingestShard is one bounded staging lane.
type ingestShard struct {
	mu     sync.Mutex
	items  []submitItem // staged, ticket-ascending
	closed bool

	// run is the flusher's half of the double buffer (guarded by
	// flushMu, not mu): the items gather last swapped out, with next the
	// merge's position in them.
	run  []submitItem
	next int
}

// lanes is the sharded ingest front end over one Daemon.
type lanes struct {
	d      *Daemon
	shards []ingestShard
	bound  int // per-shard queue capacity
	seed   maphash.Seed

	tickets atomic.Uint64
	notify  chan struct{} // wakes the flusher; capacity 1
	stop    chan struct{}
	done    chan struct{}

	// flushMu serializes flushAll between the background flusher and
	// synchronous callers (Drain, Close, tests). Lock order is always
	// flushMu before d.mu.
	flushMu sync.Mutex

	// scratch is the merge buffer reused across flushes.
	scratch []submitItem

	// Metrics, sampled by /metrics.
	enqueued   atomic.Uint64
	flushes    atomic.Uint64
	overflowed atomic.Uint64
	batchSizes *histogram
}

// ingestBatchBuckets spans the flush batch-size distribution the lanes
// produce: 1 (idle daemon) up to the whole-queue drains of a saturated
// one.
var ingestBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

func newLanes(d *Daemon, shards, bound int) *lanes {
	if shards <= 0 {
		shards = defaultIngestShards
	}
	if bound <= 0 {
		bound = defaultIngestQueue
	}
	ln := &lanes{
		d:      d,
		shards: make([]ingestShard, shards),
		bound:  bound,
		seed:   maphash.MakeSeed(),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		batchSizes: newHistogram("amjsd_ingest_batch_jobs",
			"Jobs injected per engine-lock acquisition (flush batch size).",
			ingestBatchBuckets),
	}
	go ln.run()
	return ln
}

// shardFor hashes the submitting user onto a lane.
func (ln *lanes) shardFor(user string) *ingestShard {
	h := maphash.String(ln.seed, user)
	return &ln.shards[h%uint64(len(ln.shards))]
}

// submit stages every request whose result slot holds no error yet,
// wakes the flusher, and blocks until all of this call's items have
// been injected (or failed), writing each outcome into the
// index-aligned results slot. A slot that already holds an error (an
// element the caller could not decode) is left alone.
func (ln *lanes) submit(reqs []SubmitRequest, results []SubmitResult) {
	var wg sync.WaitGroup
	staged := 0
	for i := range reqs {
		if results[i].Err != nil {
			continue
		}
		sh := ln.shardFor(reqs[i].User)
		sh.mu.Lock()
		switch {
		case sh.closed:
			sh.mu.Unlock()
			results[i].Err = ErrClosed
		case len(sh.items) >= ln.bound:
			sh.mu.Unlock()
			ln.overflowed.Add(1)
			results[i].Err = ErrOverloaded
		default:
			wg.Add(1)
			sh.items = append(sh.items, submitItem{
				req: &reqs[i], res: &results[i], wg: &wg, ticket: ln.tickets.Add(1),
			})
			sh.mu.Unlock()
			staged++
		}
	}
	if staged > 0 {
		ln.enqueued.Add(uint64(staged))
		select {
		case ln.notify <- struct{}{}:
		default: // a wake-up is already pending
		}
		wg.Wait()
	}
}

// run is the flusher goroutine: woken by submit, it drains the lanes
// until empty, then sleeps again. On stop it performs one final drain
// so no staged item is ever stranded.
func (ln *lanes) run() {
	defer close(ln.done)
	for {
		select {
		case <-ln.stop:
			ln.flushAll()
			return
		case <-ln.notify:
			ln.flushAll()
		}
	}
}

// flushAll drains every shard and injects the merged batch into the
// engine in ticket order, repeating until the lanes are empty. Safe for
// concurrent use (flushMu); callers needing "everything staged so far
// is in the engine" call it directly.
func (ln *lanes) flushAll() {
	ln.flushMu.Lock()
	defer ln.flushMu.Unlock()
	for {
		batch := ln.gather()
		if len(batch) == 0 {
			return
		}
		ln.flush(batch)
	}
}

// gather swaps out every shard's staged run and merges the runs into
// ticket order. Callers hold flushMu.
//
// Every shard is locked at once for the swap, so the batch is exactly
// the set of items staged at one instant. Tickets are drawn under the
// shard lock, so each run is ticket-ascending, and every item staged
// later draws a larger ticket than any in the batch: batches are
// consecutive prefixes of the ticket order, and injecting them in turn
// admits every item in ticket order. A stager holds one shard lock at
// a time, so taking them all cannot deadlock.
func (ln *lanes) gather() []submitItem {
	for i := range ln.shards {
		ln.shards[i].mu.Lock()
	}
	for i := range ln.shards {
		sh := &ln.shards[i]
		sh.run, sh.items, sh.next = sh.items, sh.run[:0], 0
	}
	for i := range ln.shards {
		ln.shards[i].mu.Unlock()
	}
	batch := ln.scratch[:0]
	for {
		var head *ingestShard // the shard whose next item has the least ticket
		for i := range ln.shards {
			sh := &ln.shards[i]
			if sh.next < len(sh.run) && (head == nil || sh.run[sh.next].ticket < head.run[head.next].ticket) {
				head = sh
			}
		}
		if head == nil {
			break
		}
		batch = append(batch, head.run[head.next])
		head.next++
	}
	ln.scratch = batch
	return batch
}

// flush injects one merged batch under a single engine-lock
// acquisition and releases every waiter.
func (ln *lanes) flush(batch []submitItem) {
	d := ln.d
	// PredictedStartSec points into one array per flush, not one
	// allocation per job.
	predicted := make([]int64, len(batch))
	d.mu.Lock()
	for i := range batch {
		it := &batch[i]
		it.res.Status, it.res.Err = d.submitLocked(it.req, &predicted[i])
	}
	d.mu.Unlock()
	ln.flushes.Add(1)
	ln.batchSizes.observe(float64(len(batch)))
	for i := range batch {
		batch[i].wg.Done()
	}
}

// close marks every shard closed (new submissions fail fast with
// ErrClosed), stops the flusher, and waits for its final drain.
func (ln *lanes) close() {
	for i := range ln.shards {
		ln.shards[i].mu.Lock()
		ln.shards[i].closed = true
		ln.shards[i].mu.Unlock()
	}
	close(ln.stop)
	<-ln.done
}

// depths samples each shard's staged-item count for /metrics.
func (ln *lanes) depths(out []int) []int {
	for i := range ln.shards {
		ln.shards[i].mu.Lock()
		out = append(out, len(ln.shards[i].items))
		ln.shards[i].mu.Unlock()
	}
	return out
}
