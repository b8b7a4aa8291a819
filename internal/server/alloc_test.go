//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// allocation floor is only measured without it.

package server

import "testing"

// batchSubmitAllocs bounds the allocations of one warm 256-job POST
// /v1/jobs?count=1 through API.ServeHTTP, recorder included: 18 per
// request and flush, plus under one for the job-table chunks, ID-table pages
// and engine buffers that grow every few batches. Allocating per job
// would put it in the hundreds.
const batchSubmitAllocs = 19

// TestBatchSubmitAllocs pins the admission path's allocation floor:
// decoding, staging, flushing and admitting a batch allocates per
// request and per flush, never per job.
func TestBatchSubmitAllocs(t *testing.T) {
	d := newCycleDaemon(t)
	t.Cleanup(func() { d.Close() })
	p := newBatchPoster(t, d)
	p.post(t) // warm the pools and the engine's buffers
	if n := testing.AllocsPerRun(100, func() { p.post(t) }); n > batchSubmitAllocs {
		t.Fatalf("a 256-job batch allocates %v times, want at most %d", n, batchSubmitAllocs)
	}
}
