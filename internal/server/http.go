// HTTP front end: JSON routes over the Daemon, request logging,
// per-route latency histograms, and the Prometheus scrape endpoint.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"amjs/internal/sim"
)

// API is the daemon's HTTP surface. Build one with NewAPI and mount it
// as an http.Handler.
type API struct {
	d   *Daemon
	log *slog.Logger
	mux *http.ServeMux

	logRequests bool
	scan        *submitScanner

	requests *counterVec
	latency  *histogramVec
}

// NewAPI wires the routes over a daemon.
func NewAPI(d *Daemon) *API {
	a := &API{
		d:           d,
		log:         d.log,
		mux:         http.NewServeMux(),
		logRequests: true,
		scan:        &submitScanner{users: newUserInterner()},
		requests: newCounterVec("amjsd_http_requests_total",
			"HTTP requests served, by route, method, and status code.",
			"route", "method", "code"),
		latency: newHistogramVec("amjsd_http_request_duration_seconds",
			"HTTP request latency in seconds, by route.",
			"route", defaultLatencyBuckets),
	}
	a.handle("POST /v1/jobs", "/v1/jobs", a.submitJob)
	a.handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", a.getJob)
	a.handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", a.deleteJob)
	a.handle("GET /v1/queue", "/v1/queue", a.getQueue)
	a.handle("GET /v1/machine", "/v1/machine", a.getMachine)
	a.handle("GET /v1/events", "/v1/events", a.getEvents)
	a.handle("GET /v1/tuner", "/v1/tuner", a.getTuner)
	a.handle("POST /v1/drain", "/v1/drain", a.drain)
	a.handle("GET /metrics", "/metrics", a.metrics)
	a.handle("GET /healthz", "/healthz", a.healthz)
	a.handle("GET /readyz", "/readyz", a.readyz)
	return a
}

// SetRequestLogging toggles the per-request access log line. Metrics
// are always collected; high-rate load tests turn the log off because
// formatting a slog record per request costs more than serving it.
func (a *API) SetRequestLogging(on bool) { a.logRequests = on }

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach Flush on the underlying
// writer (the events feed streams incrementally).
func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// handle mounts a handler with logging and latency instrumentation.
// route is the normalized label (wildcards, not values) so the metric
// cardinality stays bounded.
func (a *API) handle(pattern, route string, h http.HandlerFunc) {
	a.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		a.requests.inc(route, r.Method, strconv.Itoa(rec.code))
		a.latency.observe(elapsed.Seconds(), route)
		if a.logRequests {
			a.log.Info("http",
				"method", r.Method, "path", r.URL.Path,
				"status", rec.code, "dur", elapsed.Round(time.Microsecond))
		}
	})
}

// writeJSON renders v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a POST /v1/jobs body: a full 4096-item batch of
// worst-case objects fits with room to spare.
const maxBodyBytes = 8 << 20

// readBody drains the request body into a pooled buffer. On success the
// caller owns the returned pointer and must bodyPool.Put it.
func readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return bp, nil
		}
		if err != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, err
		}
	}
}

// submitJob serves POST /v1/jobs. A JSON object is one submission
// (201/4xx as before); a JSON array is a batch routed through the
// sharded ingest lanes with per-item results (see submitBatch).
func (a *API) submitJob(w http.ResponseWriter, r *http.Request) {
	bp, err := readBody(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	defer bodyPool.Put(bp)
	body := *bp
	if i := skipSpace(body, 0); i < len(body) && body[i] == '[' {
		a.submitBatch(w, r, body[i:])
		return
	}
	var req SubmitRequest
	if err := a.scan.decodeSubmit(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	st, err := a.d.Submit(req)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+strconv.Itoa(st.ID))
		writeJSON(w, http.StatusCreated, st)
	case errors.Is(err, sim.ErrRejected):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// errBatchTooLarge aborts splitBatch once the element cap is hit.
var errBatchTooLarge = errors.New("batch exceeds the configured item cap")

// appendJSONString appends s as a JSON string. The fast path covers the
// plain-ASCII names and error texts the API produces; anything needing
// escapes goes through encoding/json.
func appendJSONString(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			raw, _ := json.Marshal(s)
			buf.Write(raw)
			return
		}
	}
	buf.WriteByte('"')
	buf.WriteString(s)
	buf.WriteByte('"')
}

// batchBuffers is one batch request's decoded requests and their
// index-aligned results, recycled through batchPool so a warm batch
// allocates nothing per element. The request's handler owns them from
// Get to Put; the lanes write into results while it waits.
type batchBuffers struct {
	reqs    []SubmitRequest
	results []SubmitResult
}

var batchPool = sync.Pool{New: func() any { return new(batchBuffers) }}

// appendInt appends v in decimal without boxing it.
func appendInt(buf *bytes.Buffer, v int64) {
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), v, 10))
}

// submitBatch serves the array form of POST /v1/jobs.
//
// Partial-failure semantics: a well-formed array is always answered
// 200 with one result per element, index-aligned — accepted items carry
// {"id", "state", "submit_sec"}, failed ones {"error"}; an undecodable
// or rejected element fails alone and never poisons its neighbours.
// Only defects of the envelope itself fail the whole request: malformed
// array syntax (400) or more than MaxBatch elements (413). With
// ?count=1 the per-item results are omitted and only the counts are
// returned — the load driver's low-bandwidth mode.
func (a *API) submitBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	maxBatch := a.d.cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	bb := batchPool.Get().(*batchBuffers)
	defer batchPool.Put(bb)
	reqs, results := bb.reqs[:0], bb.results[:0]
	_, err := splitBatch(body, func(i int, elem []byte) error {
		if i >= maxBatch {
			return errBatchTooLarge
		}
		reqs = append(reqs, SubmitRequest{})
		results = append(results, SubmitResult{Err: a.scan.decodeSubmit(elem, &reqs[i])})
		return nil
	})
	bb.reqs, bb.results = reqs, results
	if err != nil {
		if errors.Is(err, errBatchTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"batch exceeds %d items", maxBatch)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	// Admit the decodable items in one lane batch; the lanes skip the
	// elements whose decode error is already in their result slot.
	a.d.lanes.submit(reqs, results)

	accepted := 0
	for i := range results {
		if results[i].Err == nil {
			accepted++
		}
	}
	countOnly := r.URL.Query().Get("count") == "1"

	buf := respPool.Get().(*bytes.Buffer)
	defer respPool.Put(buf)
	buf.Reset()
	buf.WriteString(`{"accepted":`)
	appendInt(buf, int64(accepted))
	buf.WriteString(`,"failed":`)
	appendInt(buf, int64(len(results)-accepted))
	if !countOnly {
		buf.WriteString(`,"results":[`)
		for i := range results {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := results[i].Err; err != nil {
				buf.WriteString(`{"error":`)
				appendJSONString(buf, err.Error())
				buf.WriteByte('}')
				continue
			}
			st := &results[i].Status
			buf.WriteString(`{"id":`)
			appendInt(buf, int64(st.ID))
			buf.WriteString(`,"state":`)
			appendJSONString(buf, st.State)
			buf.WriteString(`,"submit_sec":`)
			appendInt(buf, st.SubmitSec)
			buf.WriteByte('}')
		}
		buf.WriteByte(']')
	}
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
}

// jobID extracts and validates the {id} path segment.
func jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (a *API) getJob(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	st, err := a.d.Job(id)
	if errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusNotFound, "job %d not found", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) deleteJob(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	err := a.d.Cancel(id)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "job %d not found", id)
	case errors.Is(err, ErrNotCancellable):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (a *API) getQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.d.Queue())
}

func (a *API) getMachine(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.d.Machine())
}

// getTuner serves GET /v1/tuner: the adaptive-policy snapshot — current
// tunables plus, for a what-if policy, the planner's counters and
// decision log.
func (a *API) getTuner(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.d.Tuner())
}

// appendEvent hand-encodes one NDJSON feed line (field order matches
// the JobEvent struct tags).
func appendEvent(buf *bytes.Buffer, ev *JobEvent) {
	fmt.Fprintf(buf, `{"seq":%d,"t_sec":%d,"id":%d`, ev.Seq, ev.TSec, ev.ID)
	if ev.User != "" {
		buf.WriteString(`,"user":`)
		appendJSONString(buf, ev.User)
	}
	if ev.Nodes != 0 {
		fmt.Fprintf(buf, `,"nodes":%d`, ev.Nodes)
	}
	buf.WriteString(`,"state":`)
	appendJSONString(buf, ev.State)
	if ev.Dropped != 0 {
		fmt.Fprintf(buf, `,"dropped":%d`, ev.Dropped)
	}
	buf.WriteString("}\n")
}

// validEventStates are the ?state= filter values getEvents accepts —
// exactly the names job.State renders into the feed.
var validEventStates = map[string]bool{
	"submitted": true, "queued": true, "running": true,
	"finished": true, "killed": true, "cancelled": true,
}

// getEvents serves GET /v1/events: the NDJSON job-event feed. The
// response streams until the client disconnects (or, with ?max=N, after
// N events — the snapshot mode tests and one-shot consumers use).
// ?user=NAME and ?state=NAME narrow the subscription; mismatching
// events are filtered before they ever reach this subscriber's ring
// (see events.go), so a filtered feed's ring holds only wanted events.
func (a *API) getEvents(w http.ResponseWriter, r *http.Request) {
	var max, total int
	if s := r.URL.Query().Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad max %q", s)
			return
		}
		max = n
	}
	state := r.URL.Query().Get("state")
	if state != "" && !validEventStates[state] {
		writeError(w, http.StatusBadRequest, "bad state %q", state)
		return
	}
	rc := http.NewResponseController(w)
	sub := a.d.hub.subscribe(r.URL.Query().Get("user"), state)
	defer a.d.hub.unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush() //nolint:errcheck // headers out before the first long wait
	ctx := r.Context()
	evs := make([]JobEvent, 256)
	var buf bytes.Buffer
	for {
		n, dropped := sub.take(evs)
		if n == 0 {
			select {
			case <-ctx.Done():
				return
			case <-sub.wake:
				continue
			}
		}
		if dropped > 0 {
			evs[0].Dropped = dropped
		}
		if max > 0 && total+n > max {
			n = max - total
		}
		buf.Reset()
		for i := 0; i < n; i++ {
			appendEvent(&buf, &evs[i])
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		total += n
		if max > 0 && total >= max {
			return
		}
	}
}

func (a *API) drain(w http.ResponseWriter, r *http.Request) {
	now, err := a.d.Drain()
	if err != nil {
		if errors.Is(err, ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"now_sec": now})
}

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	s := a.d.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauges := []gauge{
		{"amjsd_virtual_time_seconds", "Current virtual time of the scheduling session.", float64(s.VirtualSec)},
		{"amjsd_utilization", "Fraction of machine nodes used by running jobs.", s.Utilization},
		{"amjsd_queue_jobs", "Number of jobs waiting in the queue.", float64(s.QueueJobs)},
		{"amjsd_queue_depth_minutes", "Queue depth in minutes (the paper's metric).", s.QueueDepthMinutes},
		{"amjsd_running_jobs", "Number of jobs currently executing.", float64(s.RunningJobs)},
		{"amjsd_avg_bounded_slowdown", "Average bounded slowdown (BSLD, tau=10s) of started jobs.", s.AvgBSLD},
		{"amjsd_max_bounded_slowdown", "Maximum bounded slowdown (BSLD, tau=10s) of started jobs.", s.MaxBSLD},
		{"amjsd_jobs_accepted_total", "Jobs accepted since start.", float64(s.Accepted)},
		{"amjsd_jobs_rejected_total", "Jobs rejected as never fitting the machine.", float64(s.Rejected)},
		{"amjsd_jobs_cancelled_total", "Jobs cancelled before starting.", float64(s.Cancelled)},
		{"amjsd_jobs_finished_total", "Jobs completed within their walltime.", float64(s.Finished)},
		{"amjsd_jobs_killed_total", "Jobs terminated at their walltime limit.", float64(s.Killed)},
	}
	if s.HasTunables {
		gauges = append(gauges,
			gauge{"amjsd_balance_factor", "Current metric-aware balance factor (BF).", s.BF},
			gauge{"amjsd_window_size", "Current metric-aware window size (W).", float64(s.W)},
		)
	}
	writeGauges(w, gauges)

	// Ingest-lane and event-feed instrumentation.
	ln, hub := a.d.lanes, a.d.hub
	writeCounter(w, "amjsd_ingest_enqueued_total",
		"Submissions staged into the ingest lanes.", ln.enqueued.Load())
	writeCounter(w, "amjsd_ingest_flushes_total",
		"Engine-lock acquisitions by the lane flusher.", ln.flushes.Load())
	writeCounter(w, "amjsd_ingest_overflowed_total",
		"Submissions refused because their lane was full.", ln.overflowed.Load())
	writeCounter(w, "amjsd_events_published_total",
		"Job events offered to /v1/events subscribers.", hub.published.Load())
	writeCounter(w, "amjsd_events_dropped_total",
		"Events lost to slow consumers (ring-buffer evictions).", hub.dropped.Load())
	writeCounter(w, "amjsd_events_filtered_total",
		"Events withheld from subscribers by ?user=/?state= filters.", hub.filtered.Load())
	writeGauges(w, []gauge{{"amjsd_events_subscribers",
		"Open /v1/events connections.", float64(hub.nsubs.Load())}})

	// What-if planner instrumentation, present only under a what-if
	// policy.
	if ws := s.WhatIf; ws != nil {
		writeCounter(w, "amjsd_whatif_ticks_total",
			"Checkpoints at which the what-if planner ran.", ws.Ticks)
		writeCounter(w, "amjsd_whatif_candidates_evaluated_total",
			"Candidate rollouts scored by the what-if planner.", ws.Evaluated)
		writeCounter(w, "amjsd_whatif_commits_total",
			"What-if decisions committed to the live tunables.", ws.Commits)
		writeCounter(w, "amjsd_whatif_skipped_total",
			"What-if ticks skipped (empty queue, no capability, or no valid rollout).", ws.Skipped)
		writeCounter(w, "amjsd_whatif_rollout_passes_total",
			"Scheduling passes executed inside what-if rollouts.", ws.RolloutPasses)
		writeCounter(w, "amjsd_whatif_rollouts_shared_total",
			"What-if rollouts answered wholly or partly from the incumbent's.", ws.RolloutsShared)
		writeGauges(w, []gauge{{"amjsd_whatif_last_objective_delta",
			"Objective improvement of the last evaluated tick (incumbent minus best).",
			ws.LastDelta}})
		fmt.Fprintf(w, "# HELP amjsd_whatif_rollout_seconds Wall-clock cost of one what-if tick's rollouts.\n"+
			"# TYPE amjsd_whatif_rollout_seconds histogram\n")
		for _, b := range ws.LatBuckets {
			le := "+Inf"
			if b.LE >= 0 {
				le = strconv.FormatFloat(b.LE, 'g', -1, 64)
			}
			fmt.Fprintf(w, "amjsd_whatif_rollout_seconds_bucket{le=\"%s\"} %d\n", le, b.N)
		}
		fmt.Fprintf(w, "amjsd_whatif_rollout_seconds_sum %g\n", ws.LatSumSec)
		fmt.Fprintf(w, "amjsd_whatif_rollout_seconds_count %d\n", ws.LatCount)
	}
	fmt.Fprintf(w, "# HELP amjsd_ingest_shard_depth Staged submissions per ingest shard.\n"+
		"# TYPE amjsd_ingest_shard_depth gauge\n")
	for i, depth := range ln.depths(make([]int, 0, len(ln.shards))) {
		fmt.Fprintf(w, "amjsd_ingest_shard_depth{shard=\"%d\"} %d\n", i, depth)
	}
	ln.batchSizes.write(w)

	a.requests.write(w)
	a.latency.write(w)
}

// writeCounter emits one label-free counter.
func writeCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (a *API) healthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (a *API) readyz(w http.ResponseWriter, r *http.Request) {
	if !a.d.Ready() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
