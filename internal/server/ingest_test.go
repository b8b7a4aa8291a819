package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"amjs/internal/machine"
	"amjs/internal/sched"
)

// batchResponse mirrors the wire shape of a batch POST /v1/jobs reply.
type batchResponse struct {
	Accepted int `json:"accepted"`
	Failed   int `json:"failed"`
	Results  []struct {
		ID        int    `json:"id"`
		State     string `json:"state"`
		SubmitSec int64  `json:"submit_sec"`
		Error     string `json:"error"`
	} `json:"results"`
}

func postBatch(t *testing.T, client *http.Client, url, body string) (int, batchResponse) {
	t.Helper()
	resp, err := client.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("batch response not JSON: %v", err)
		}
	}
	return resp.StatusCode, br
}

// TestBatchSubmitEmptyArray: [] is a well-formed batch of nothing.
func TestBatchSubmitEmptyArray(t *testing.T) {
	_, srv := newTestAPI(t)
	code, br := postBatch(t, srv.Client(), srv.URL, ` [ ] `)
	if code != http.StatusOK || br.Accepted != 0 || br.Failed != 0 || len(br.Results) != 0 {
		t.Fatalf("empty batch: code %d, %+v", code, br)
	}
}

// TestBatchSubmitOversize: one element past MaxBatch fails the whole
// request with 413 before anything is admitted.
func TestBatchSubmitOversize(t *testing.T) {
	d, err := New(Config{
		Machine:   machine.NewFlat(100),
		Scheduler: sched.NewEASY(),
		Speedup:   math.Inf(1),
		MaxBatch:  4,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(NewAPI(d))
	t.Cleanup(srv.Close)

	elems := make([]string, 5)
	for i := range elems {
		elems[i] = `{"user":"a","nodes":1,"walltime_sec":60}`
	}
	code, _ := postBatch(t, srv.Client(), srv.URL, "["+strings.Join(elems, ",")+"]")
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: code %d, want 413", code)
	}
	if got := d.Stats().Accepted; got != 0 {
		t.Fatalf("oversize batch admitted %d jobs", got)
	}

	// Exactly at the cap is fine.
	code, br := postBatch(t, srv.Client(), srv.URL, "["+strings.Join(elems[:4], ",")+"]")
	if code != http.StatusOK || br.Accepted != 4 {
		t.Fatalf("at-cap batch: code %d, %+v", code, br)
	}
}

// TestBatchSubmitMixed: invalid elements fail alone — undecodable JSON,
// validation failures, and machine rejections each produce a per-item
// error while their neighbours are admitted with sequential IDs.
func TestBatchSubmitMixed(t *testing.T) {
	_, srv := newTestAPI(t) // flat:100 machine
	body := `[
		{"user":"a","nodes":4,"walltime_sec":60},
		{"user":"b","nodes":"four","walltime_sec":60},
		{"user":"c","nodes":101,"walltime_sec":60},
		{"user":"d","nodes":-1,"walltime_sec":60},
		{"user":"e","nodes":8,"walltime_sec":120,"priority":9},
		{"user":"f","nodes":2,"walltime_sec":30}
	]`
	code, br := postBatch(t, srv.Client(), srv.URL, body)
	if code != http.StatusOK {
		t.Fatalf("mixed batch: code %d", code)
	}
	if br.Accepted != 2 || br.Failed != 4 || len(br.Results) != 6 {
		t.Fatalf("mixed batch: %+v", br)
	}
	for i, wantErr := range []bool{false, true, true, true, true, false} {
		if gotErr := br.Results[i].Error != ""; gotErr != wantErr {
			t.Fatalf("result %d: error %q, wantErr=%v", i, br.Results[i].Error, wantErr)
		}
	}
	if br.Results[0].ID != 1 || br.Results[5].ID != 2 {
		t.Fatalf("accepted IDs %d,%d; want 1,2", br.Results[0].ID, br.Results[5].ID)
	}
	if br.Results[0].State != "submitted" {
		t.Fatalf("accepted state %q", br.Results[0].State)
	}
}

// TestBatchSubmitMalformedArray: envelope defects are request-level
// errors, not per-item ones.
func TestBatchSubmitMalformedArray(t *testing.T) {
	_, srv := newTestAPI(t)
	for _, body := range []string{`[`, `[{},]`, `[{}] trailing`, `[{"user":"a"}`} {
		if code, _ := postBatch(t, srv.Client(), srv.URL, body); code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, code)
		}
	}
}

// TestBatchSubmitCountOnly: ?count=1 omits per-item results.
func TestBatchSubmitCountOnly(t *testing.T) {
	_, srv := newTestAPI(t)
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs?count=1", "application/json",
		strings.NewReader(`[{"user":"a","nodes":1,"walltime_sec":60},{"user":"b","nodes":999,"walltime_sec":60}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br struct {
		Accepted int              `json:"accepted"`
		Failed   int              `json:"failed"`
		Results  *json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || br.Accepted != 1 || br.Failed != 1 || br.Results != nil {
		t.Fatalf("count-only: code %d, %+v", resp.StatusCode, br)
	}
}

// TestIngestOverflow fills a single bounded lane while the flusher is
// wedged behind the engine lock: the overflow items fail fast with
// ErrOverloaded and everything staged before the bound is admitted once
// the lock frees.
func TestIngestOverflow(t *testing.T) {
	const bound = 8
	d, err := New(Config{
		Machine:      machine.NewFlat(100),
		Scheduler:    sched.NewEASY(),
		Speedup:      math.Inf(1),
		IngestShards: 1,
		IngestQueue:  bound,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	reqs := make([]SubmitRequest, bound+3)
	for i := range reqs {
		reqs[i] = SubmitRequest{User: "a", Nodes: 1, WalltimeSec: 60}
	}
	// Wedge the flusher before it can gather, so staging alone must
	// absorb the burst and the lane bound decides who overflows.
	d.lanes.flushMu.Lock()
	done := make(chan []SubmitResult, 1)
	go func() { done <- d.SubmitBatch(reqs) }()
	for d.lanes.overflowed.Load() != 3 {
		runtime.Gosched()
	}
	d.lanes.flushMu.Unlock()
	results := <-done
	var accepted, overloaded int
	for _, r := range results {
		switch {
		case r.Err == nil:
			accepted++
		case errors.Is(r.Err, ErrOverloaded):
			overloaded++
		default:
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if accepted != bound || overloaded != 3 {
		t.Fatalf("accepted %d overloaded %d, want %d/3", accepted, overloaded, bound)
	}
}

// TestSubmitAfterCloseFailsFast: lanes refuse with ErrClosed once Close
// begins, and the single path refuses once it completes.
func TestSubmitAfterCloseFailsFast(t *testing.T) {
	d, err := New(Config{
		Machine:   machine.NewFlat(100),
		Scheduler: sched.NewEASY(),
		Speedup:   math.Inf(1),
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	res := d.SubmitBatch([]SubmitRequest{{User: "a", Nodes: 1, WalltimeSec: 60}})
	if len(res) != 1 || !errors.Is(res[0].Err, ErrClosed) {
		t.Fatalf("batch after close: %+v", res)
	}
	if _, err := d.Submit(SubmitRequest{User: "a", Nodes: 1, WalltimeSec: 60}); !errors.Is(err, ErrClosed) {
		t.Fatalf("single after close: %v", err)
	}
}

// TestIngestConcurrentMixed hammers one ∞-mode daemon with concurrent
// batch submitters, single submitters, cancels, and a drain — the -race
// test of the lane/lock interplay. Everything admitted must be
// accounted for exactly once.
func TestIngestConcurrentMixed(t *testing.T) {
	d, err := New(Config{
		Machine:      machine.NewFlat(100),
		Scheduler:    sched.NewEASY(),
		Speedup:      math.Inf(1),
		Paranoid:     true,
		IngestShards: 4,
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	const (
		batchers  = 4
		perBatch  = 25
		batches   = 8
		singles   = 100
		cancelers = 2
	)
	var wg sync.WaitGroup
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for n := 0; n < batches; n++ {
				reqs := make([]SubmitRequest, perBatch)
				for i := range reqs {
					reqs[i] = SubmitRequest{
						User: fmt.Sprintf("u%d", (b*perBatch+i)%7), Nodes: 1 + i%4,
						WalltimeSec: 60,
					}
				}
				for _, r := range d.SubmitBatch(reqs) {
					if r.Err != nil {
						t.Errorf("batch item: %v", r.Err)
					}
				}
			}
		}(b)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < singles; i++ {
			if _, err := d.Submit(SubmitRequest{User: "solo", Nodes: 2, WalltimeSec: 120}); err != nil {
				t.Errorf("single: %v", err)
			}
		}
	}()
	for c := 0; c < cancelers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 1; i < 200; i += 2 {
				err := d.Cancel(i)
				if err != nil && !errors.Is(err, ErrUnknownJob) && !errors.Is(err, ErrNotCancellable) {
					t.Errorf("cancel %d: %v", i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	const want = batchers*perBatch*batches + singles
	s := d.Stats()
	if s.Accepted != want {
		t.Fatalf("accepted %d, want %d", s.Accepted, want)
	}
	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if got := s.Finished + s.Killed + s.Cancelled; got != want {
		t.Fatalf("finished %d + killed %d + cancelled %d = %d, want %d",
			s.Finished, s.Killed, s.Cancelled, got, want)
	}
}

// TestGatherMergesTicketOrder: gather merges hand-built shard runs whose
// tickets interleave into one ticket-ordered batch, and leaves the
// shards empty for the next round.
func TestGatherMergesTicketOrder(t *testing.T) {
	ln := &lanes{shards: make([]ingestShard, 4)}
	runs := [][]uint64{{2, 3, 9}, {1, 7}, {}, {4, 5, 6, 8, 10}}
	for i, run := range runs {
		for _, ticket := range run {
			ln.shards[i].items = append(ln.shards[i].items, submitItem{ticket: ticket})
		}
	}
	batch := ln.gather()
	if len(batch) != 10 {
		t.Fatalf("gathered %d items, want 10", len(batch))
	}
	for i, it := range batch {
		if it.ticket != uint64(i+1) {
			t.Fatalf("batch[%d] has ticket %d, want %d", i, it.ticket, i+1)
		}
	}
	if again := ln.gather(); len(again) != 0 {
		t.Fatalf("second gather returned %d items, want 0", len(again))
	}
}

// TestIngestConcurrentTicketOrder: with 1 and 4 shards, 8 goroutines
// post batches through the HTTP handler at once. The admitted IDs must
// be exactly 1..N, and each poster's jobs must get increasing IDs in the
// order it sent them — the ticket order the flusher injects in.
func TestIngestConcurrentTicketOrder(t *testing.T) {
	const (
		posters  = 8
		batches  = 6
		perBatch = 17
	)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, err := New(Config{
				Machine:      machine.NewFlat(100),
				Scheduler:    sched.NewEASY(),
				Speedup:      math.Inf(1),
				IngestShards: shards,
				Logger:       quietLogger(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			api := NewAPI(d)
			api.SetRequestLogging(false)

			ids := make([][]int, posters)
			var wg sync.WaitGroup
			for p := 0; p < posters; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						elems := make([]string, perBatch)
						for i := range elems {
							elems[i] = fmt.Sprintf(`{"user":"u%d","nodes":%d,"walltime_sec":60}`,
								(p+i)%5, 1+i%4)
						}
						rec := httptest.NewRecorder()
						api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
							strings.NewReader("["+strings.Join(elems, ",")+"]")))
						var br batchResponse
						if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || br.Accepted != perBatch {
							t.Errorf("poster %d batch %d: %d %s", p, b, rec.Code, rec.Body)
							return
						}
						for _, r := range br.Results {
							ids[p] = append(ids[p], r.ID)
						}
					}
				}(p)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			const n = posters * batches * perBatch
			seen := make([]bool, n+1)
			for p, got := range ids {
				for i, id := range got {
					if id < 1 || id > n || seen[id] {
						t.Fatalf("poster %d: ID %d outside 1..%d or issued twice", p, id, n)
					}
					seen[id] = true
					if i > 0 && id <= got[i-1] {
						t.Fatalf("poster %d: job %d got ID %d after ID %d", p, i, id, got[i-1])
					}
				}
			}
			if s := d.Stats(); s.Accepted != n {
				t.Fatalf("accepted %d, want %d", s.Accepted, n)
			}
		})
	}
}
