package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/server"
	"amjs/internal/sim"
	"amjs/internal/stats"
	"amjs/internal/units"
)

const (
	readRounds  = 5 // GETs of each read route behind server.read_ms_p50
	eventRounds = 2 // ingest phases with, and without, an events subscriber
)

func (w *daemonWorkload) layers(tr *tracer, plain, traced *recorder, out map[string]float64) error {
	out["trace.overhead_pct"] = overheadPct(plain, traced)
	out["workload.gen_ns_per_job"] = w.genNS

	posts := tr.windowMS("POST /v1/jobs")
	out["server.post_ms_p50"] = stats.Percentile(posts, 50)
	out["server.post_ms_p99"] = stats.Percentile(posts, 99)
	out["server.post_ms_max"] = stats.Max(posts)
	out["server.drain_ms"] = stats.Percentile(tr.windowMS("server.Daemon.Drain"), 50)
	out["server.new_close_ms"] = stats.Percentile(tr.windowMS("server.New"), 50) +
		stats.Percentile(tr.windowMS("server.Daemon.Close"), 50)

	for _, probe := range []func(*tracer, map[string]float64) error{
		w.handlerProbe, w.submitBatchProbe, w.readProbe, w.eventsProbe,
	} {
		if err := probe(tr, out); err != nil {
			return err
		}
	}

	// The state probes see the cycle's jobs as the engine does: one
	// arrival instant, then the drain.
	jobs := make([]*job.Job, len(w.reqs))
	for i, r := range w.reqs {
		jobs[i] = &job.Job{
			ID: i + 1, User: r.User, Nodes: r.Nodes,
			Walltime: units.Duration(r.WalltimeSec), Runtime: units.Duration(r.RuntimeSec),
		}
	}
	cfg := sim.Config{Machine: machine.NewFlat(daemonNodes), Scheduler: sched.NewEASY()}
	coll, err := stateProbes(cfg, jobs, units.Duration(w.refEndSec), w.probeBudget, tr, out)
	if err != nil {
		return err
	}
	out["metrics.avg_wait_min"] = coll.AvgWaitMinutes()
	out["metrics.util_pct"] = coll.UtilAvg() * 100
	out["metrics.loc_pct"] = coll.LoC() * 100
	return nil
}

// finish drains and closes a probe's daemon.
func finish(d *server.Daemon) error {
	if _, err := d.Drain(); err != nil {
		return err
	}
	return d.Close()
}

// handlerProbe feeds every body to API.ServeHTTP on a recorder: decode,
// lanes, flush and submit, without the TCP round trip.
func (w *daemonWorkload) handlerProbe(tr *tracer, out map[string]float64) error {
	d, err := w.open(false)
	if err != nil {
		return err
	}
	api := w.api.Load()
	dt := tr.timed("server.API.ServeHTTP", func() {
		for _, body := range w.bodies {
			rr := httptest.NewRecorder()
			api.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs?count=1", bytes.NewReader(body)))
			if rr.Code != http.StatusOK {
				err = fmt.Errorf("daemon-ingest: ServeHTTP answered %d", rr.Code)
			}
		}
	})
	if err != nil {
		return err
	}
	out["server.handler_us_per_job"] = float64(dt.Nanoseconds()) / 1e3 / float64(len(w.reqs))
	return finish(d)
}

// submitBatchProbe calls Daemon.SubmitBatch directly: lanes, flush and
// submit, without the wire decode.
func (w *daemonWorkload) submitBatchProbe(tr *tracer, out map[string]float64) error {
	d, err := w.open(false)
	if err != nil {
		return err
	}
	dt := tr.timed("server.Daemon.SubmitBatch", func() {
		for lo := 0; lo < len(w.reqs); lo += postBatch {
			for _, r := range d.SubmitBatch(w.reqs[lo:min(lo+postBatch, len(w.reqs))]) {
				if r.Err != nil {
					err = fmt.Errorf("daemon-ingest: SubmitBatch: %w", r.Err)
				}
			}
		}
	})
	if err != nil {
		return err
	}
	out["server.submit_batch_us_per_job"] = float64(dt.Nanoseconds()) / 1e3 / float64(len(w.reqs))
	return finish(d)
}

// get fetches a route and returns the body.
func (w *daemonWorkload) get(route string) ([]byte, error) {
	resp, err := w.client.Get(w.url + route)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", route, resp.StatusCode)
	}
	return body, nil
}

// promValue finds one label-free sample in a Prometheus exposition.
func promValue(exposition []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}

// readProbe ingests and drains one cycle, reads the lane counters off
// /metrics, and times the read routes an operator polls.
func (w *daemonWorkload) readProbe(tr *tracer, out map[string]float64) error {
	d, err := w.open(false)
	if err != nil {
		return err
	}
	var rec recorder
	w.ingest(nil, 0, 0, &rec)
	if rec.failed > 0 {
		return fmt.Errorf("daemon-ingest: read probe ingest: %v", rec.errs)
	}
	if _, err := d.Drain(); err != nil {
		return err
	}
	var ms []float64
	var exposition []byte
	for i := 0; i < readRounds; i++ {
		for _, route := range []string{"/v1/queue", "/v1/jobs/1", "/metrics"} {
			sp := tr.begin("GET "+route, 0, 0)
			t0 := time.Now()
			body, err := w.get(route)
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(sp)
			if err != nil {
				return err
			}
			if route == "/metrics" {
				exposition = body
			}
		}
	}
	out["server.read_ms_p50"] = stats.Percentile(ms, 50)
	flushes := promValue(exposition, "amjsd_ingest_batch_jobs_count")
	out["server.lane_flushes"] = flushes
	if flushes > 0 {
		out["server.jobs_per_flush"] = promValue(exposition, "amjsd_ingest_batch_jobs_sum") / flushes
	}
	out["server.overloaded_items"] = promValue(exposition, "amjsd_ingest_overflowed_total")
	return d.Close()
}

// eventsProbe compares the ingest rate with one /v1/events subscriber
// reading along against the rate without: reads beside writes.
func (w *daemonWorkload) eventsProbe(tr *tracer, out map[string]float64) error {
	var alone, watched time.Duration
	for i := 0; i < 2*eventRounds; i++ {
		d, err := w.open(false)
		if err != nil {
			return err
		}
		subscribe := i%2 == 1
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		if subscribe {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/events", nil)
			if err != nil {
				cancel()
				return err
			}
			// The handler subscribes before it sends the headers, so
			// once Do returns every later event reaches this reader.
			resp, err := w.client.Do(req)
			if err != nil {
				cancel()
				return err
			}
			go func() {
				defer close(done)
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // ends with the cancel below
				resp.Body.Close()
			}()
		} else {
			close(done)
		}
		var rec recorder
		dt := tr.timed("daemon.ingest", func() { w.ingest(nil, 0, 0, &rec) })
		cancel()
		<-done
		if rec.failed > 0 {
			return fmt.Errorf("daemon-ingest: events probe ingest: %v", rec.errs)
		}
		if subscribe {
			watched += dt
		} else {
			alone += dt
		}
		if err := finish(d); err != nil {
			return err
		}
	}
	out["server.events_ingest_ratio"] = alone.Seconds() / watched.Seconds()
	return nil
}
