package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"amjs/internal/machine"
	"amjs/internal/rng"
	"amjs/internal/sched"
	"amjs/internal/server"
	"amjs/internal/stats"
)

const (
	daemonNodes = 40960 // flat machine the size of Intrepid
	postBatch   = 256   // jobs per POST /v1/jobs array
	postConns   = 2     // keep-alive connections, one posting goroutine each
)

// daemonWorkload drives an in-process amjsd over loopback HTTP. One
// cycle is a fresh daemon, the whole job list POSTed in 256-job arrays
// over two keep-alive connections, then Drain, Stats and Close; one op
// is one POST round trip. The jobs are tiny and the machine flat, so
// the engine stays small and the server layer dominates.
type daemonWorkload struct {
	jobsPerCycle int
	warmups      int
	probeBudget  time.Duration // of each state probe

	reqs   []server.SubmitRequest // one cycle's jobs, in submit order
	bodies [][]byte               // reqs rendered as JSON arrays of postBatch
	genNS  float64                // generation and rendering, per job

	// The listener and the connections outlive the cycles: api points
	// at the current cycle's daemon.
	api    atomic.Pointer[server.API]
	srv    *http.Server
	served chan struct{}
	client *http.Client
	url    string

	refEndSec int64     // virtual instant the verification cycle drained at
	bslds     []float64 // mean bounded slowdown of each timed cycle
}

func (w *daemonWorkload) setup(seed int64, tr *tracer) error {
	sp := tr.begin("workload.render", 0, 0)
	t0 := time.Now()
	r := rng.New(seed)
	w.reqs = make([]server.SubmitRequest, w.jobsPerCycle)
	for i := range w.reqs {
		w.reqs[i] = server.SubmitRequest{
			User:        "u" + strconv.Itoa(r.Intn(17)),
			Nodes:       1 + r.Intn(4),
			WalltimeSec: 900,
			RuntimeSec:  600,
		}
	}
	w.bodies = w.bodies[:0]
	for lo := 0; lo < len(w.reqs); lo += postBatch {
		body, err := json.Marshal(w.reqs[lo:min(lo+postBatch, len(w.reqs))])
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
	}
	w.genNS = float64(time.Since(t0).Nanoseconds()) / float64(len(w.reqs))
	tr.end(sp)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.api.Load().ServeHTTP(rw, r)
	})}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed, from close
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: postConns}}

	var rec recorder
	_, w.refEndSec = w.cycle(true, tr, 0, &rec)
	for i := 0; i < w.warmups; i++ {
		w.cycle(false, nil, 0, &rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("daemon-ingest: verification and warm-up cycles: %v", rec.errs)
	}
	return nil
}

// open starts a fresh daemon behind the listener.
func (w *daemonWorkload) open(paranoid bool) (*server.Daemon, error) {
	d, err := server.New(server.Config{
		Machine:   machine.NewFlat(daemonNodes),
		Scheduler: sched.NewEASY(),
		Speedup:   math.Inf(1),
		Lean:      true,
		Paranoid:  paranoid,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	api := server.NewAPI(d)
	api.SetRequestLogging(false)
	w.api.Store(api)
	return d, nil
}

// post sends one body and returns the daemon's accepted/failed tally.
func (w *daemonWorkload) post(body []byte) (accepted, failed int, err error) {
	resp, err := w.client.Post(w.url+"/v1/jobs?count=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var tally struct {
		Accepted int `json:"accepted"`
		Failed   int `json:"failed"`
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // keep the connection reusable
		return 0, 0, fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tally); err != nil {
		return 0, 0, err
	}
	return tally.Accepted, tally.Failed, nil
}

// ingest POSTs every body over the two connections, each goroutine
// taking the next unsent body when its previous reply has arrived, and
// records one latency sample per POST. It returns the jobs accepted.
func (w *daemonWorkload) ingest(tr *tracer, parent, op int, rec *recorder) int {
	var (
		next     atomic.Int64
		accepted atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	for c := 0; c < postConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var errs []string
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.bodies) {
					break
				}
				sp := tr.begin("POST /v1/jobs", parent, op)
				t0 := time.Now()
				ok, bad, err := w.post(w.bodies[i])
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
				tr.end(sp)
				accepted.Add(int64(ok))
				if err != nil {
					errs = append(errs, fmt.Sprintf("daemon-ingest op %d POST %d: %v", op, i, err))
				} else if bad != 0 {
					errs = append(errs, fmt.Sprintf("daemon-ingest op %d POST %d: %d items refused", op, i, bad))
				}
			}
			mu.Lock()
			rec.opMS = append(rec.opMS, lat...)
			rec.ops += len(lat)
			for _, e := range errs {
				rec.fail("%s", e)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	tr.count("server.posts", int64(len(w.bodies)))
	return int(accepted.Load())
}

// cycle runs one daemon lifetime and returns the schedule's mean
// bounded slowdown and the virtual instant it drained at; a cycle that
// fails a check returns zeros.
func (w *daemonWorkload) cycle(paranoid bool, tr *tracer, op int, rec *recorder) (bsld float64, endSec int64) {
	t0 := time.Now()
	defer func() { rec.wall += time.Since(t0) }()
	root := tr.begin("daemon.cycle", 0, op)
	defer tr.end(root)

	sp := tr.begin("server.New", root, op)
	d, err := w.open(paranoid)
	tr.end(sp)
	if err != nil {
		rec.fail("daemon-ingest op %d: server.New: %v", op, err)
		return 0, 0
	}
	accepted := w.ingest(tr, root, op, rec)

	sp = tr.begin("server.Daemon.Drain", root, op)
	endSec, err = d.Drain()
	tr.end(sp)
	st := d.Stats()
	sp = tr.begin("server.Daemon.Close", root, op)
	cerr := d.Close()
	tr.end(sp)

	switch {
	case err != nil:
		rec.fail("daemon-ingest op %d: Drain: %v", op, err)
	case cerr != nil:
		rec.fail("daemon-ingest op %d: Close: %v", op, cerr)
	case accepted != len(w.reqs) || st.Accepted != len(w.reqs):
		rec.fail("daemon-ingest op %d: sent %d jobs, replies accepted %d, daemon accepted %d",
			op, len(w.reqs), accepted, st.Accepted)
	case st.Finished+st.Killed != st.Accepted:
		rec.fail("daemon-ingest op %d: %d accepted but %d finished + %d killed after Drain",
			op, st.Accepted, st.Finished, st.Killed)
	default:
		rec.jobs += st.Accepted
		tr.count("server.jobs", int64(st.Accepted))
		return st.AvgBSLD, endSec
	}
	return 0, 0
}

func (w *daemonWorkload) step(tr *tracer, op int, rec *recorder) {
	if bsld, _ := w.cycle(false, tr, op, rec); bsld > 0 {
		w.bslds = append(w.bslds, bsld)
	}
}

// avgBSLD is the median over the timed cycles: the two connections
// interleave differently each cycle, so the schedules differ slightly.
func (w *daemonWorkload) avgBSLD() float64 { return stats.Percentile(w.bslds, 50) }

func (w *daemonWorkload) close() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Close()
	<-w.served
	w.srv = nil
}
