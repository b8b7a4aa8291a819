package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"amjs/internal/machine"
	"amjs/internal/rng"
	"amjs/internal/sched"
)

// The daemon-ingest shape: tiny jobs from 17 users, posted in 256-job
// arrays to a 40960-node flat machine under EASY.
const (
	cycleBatch = 256
	cycleNodes = 40960
)

// cycleReqs generates n daemon-ingest-shaped submissions.
func cycleReqs(n int) []SubmitRequest {
	r := rng.New(42)
	reqs := make([]SubmitRequest, n)
	for i := range reqs {
		reqs[i] = SubmitRequest{
			User:        "u" + strconv.Itoa(r.Intn(17)),
			Nodes:       1 + r.Intn(4),
			WalltimeSec: 900,
			RuntimeSec:  600,
		}
	}
	return reqs
}

// newCycleDaemon opens a batch-mode daemon on the daemon-ingest machine.
func newCycleDaemon(tb testing.TB) *Daemon {
	tb.Helper()
	d, err := New(Config{
		Machine:   machine.NewFlat(cycleNodes),
		Scheduler: sched.NewEASY(),
		Speedup:   math.Inf(1),
		Lean:      true,
		Logger:    quietLogger(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkDaemonCycle is the daemon's admission-to-completion path
// without the network: one iteration is a fresh batch-mode daemon on a
// 40960-node flat machine under EASY, 100k tiny jobs admitted through
// SubmitBatch in 256-job batches, then Drain and Close. The shape
// mirrors the daemon-ingest benchmark workload minus its HTTP layer, so
// `make profile` gives the profile of the lanes, Live.Submit, the
// prediction plan and the engine's drain in one command. It also
// reports gc-cpu-%: the garbage collector's share of the process's CPU
// time over the timed loop, from runtime/metrics.
func BenchmarkDaemonCycle(b *testing.B) {
	const jobs = 100_000
	reqs := cycleReqs(jobs)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	gc0, total0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := newCycleDaemon(b)
		for lo := 0; lo < len(reqs); lo += cycleBatch {
			for _, res := range d.SubmitBatch(reqs[lo:min(lo+cycleBatch, len(reqs))]) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		if _, err := d.Drain(); err != nil {
			b.Fatal(err)
		}
		if st := d.Stats(); st.Finished+st.Killed != jobs {
			b.Fatalf("%d of %d jobs completed", st.Finished+st.Killed, jobs)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	metrics.Read(cpu)
	if total := cpu[1].Value.Float64() - total0; total > 0 {
		b.ReportMetric(100*(cpu[0].Value.Float64()-gc0)/total, "gc-cpu-%")
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// batchPoster sends one 256-job array through API.ServeHTTP with a
// recorder: the HTTP admission path (decode, lanes, flush, Live.Submit,
// response) without sockets.
type batchPoster struct {
	api  *API
	body *strings.Reader
	req  *http.Request
	raw  string
}

func newBatchPoster(tb testing.TB, d *Daemon) *batchPoster {
	tb.Helper()
	raw, err := json.Marshal(cycleReqs(cycleBatch))
	if err != nil {
		tb.Fatal(err)
	}
	p := &batchPoster{api: NewAPI(d), raw: string(raw)}
	p.api.SetRequestLogging(false)
	p.body = strings.NewReader(p.raw)
	p.req = httptest.NewRequest(http.MethodPost, "/v1/jobs?count=1", p.body)
	return p
}

// post sends the batch once and fails unless every job was accepted.
func (p *batchPoster) post(tb testing.TB) {
	p.body.Reset(p.raw)
	rec := httptest.NewRecorder()
	p.api.ServeHTTP(rec, p.req)
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), `{"accepted":256,"failed":0}`) {
		tb.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body)
	}
}

// BenchmarkBatchSubmit is one 256-job POST /v1/jobs?count=1 through
// API.ServeHTTP: the handler, the lanes, the flush and Live.Submit,
// then the response, with no sockets. Off the clock, every 100k jobs
// the daemon is drained and replaced, so the session stays the size a
// daemon-ingest cycle reaches.
func BenchmarkBatchSubmit(b *testing.B) {
	const perDaemon = 100_000 / cycleBatch
	d := newCycleDaemon(b)
	p := newBatchPoster(b, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perDaemon == 0 {
			b.StopTimer()
			if _, err := d.Drain(); err != nil {
				b.Fatal(err)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			d = newCycleDaemon(b)
			p = newBatchPoster(b, d)
			b.StartTimer()
		}
		p.post(b)
	}
	b.StopTimer()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cycleBatch*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
