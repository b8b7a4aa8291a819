// Command amjs-load drives a running amjsd daemon with job
// submissions: it streams a trace (an SWF file, the bundled sample, or
// a synthetic generator), POSTs jobs from a pool of concurrent workers
// over reused keep-alive connections, and reports submission
// throughput, latency percentiles, and — separately — connection-level
// errors versus API rejections.
//
// Examples:
//
//	amjs-load -addr http://127.0.0.1:8080 -trace sample
//	amjs-load -trace intrepid.swf -accel 3600 -workers 4
//	amjs-load -trace gen -max 100000 -batch 256          # batched, full speed
//	amjs-load -trace gen -batch 256 -curve 20000,50000,100000 -step-dur 3s -json curve.json
//
// With -accel 0 and -rate 0 (the defaults) jobs are submitted back to
// back — a closed-loop saturation test. -rate R offers an open-loop
// load of R jobs/s; -curve sweeps a list of offered rates for
// -step-dur each and reports the achieved rate at every step — the
// saturation curve. -batch N packs N jobs per POST /v1/jobs array
// (count-only responses), the high-throughput wire mode. -trace-times
// forwards the trace's submit instants in the request body, which a
// speedup=inf daemon honors verbatim (requires -workers 1 to keep them
// monotonic). -json writes a BENCH-style artifact; -min-rate fails the
// run when the peak achieved rate lands below the floor (the CI smoke
// gate).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amjs/internal/job"
	"amjs/internal/units"
	"amjs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "amjs-load: %v\n", err)
		os.Exit(1)
	}
}

// summary aggregates one measurement step.
type summary struct {
	Jobs       int // jobs offered to the daemon
	Accepted   int
	APIErrors  int // daemon said no: 4xx/5xx statuses, per-item rejections
	ConnErrors int // transport said no: dial/write/read failures
	Skipped    int
	WallSec    float64
	PerSec     float64 // accepted jobs per wall second
	Offered    float64 // offered rate (0 = unbounded)
	P50, P90   float64 // request latency, milliseconds
	P99, Max   float64
	FirstErrs  []string
}

// jobSource is the trace abstraction the replay loop consumes;
// workload.SWFSource satisfies it, as does the synthetic generator.
type jobSource interface {
	Next() (*job.Job, error)
	Skipped() int
}

// genSource synthesizes an endless (or bounded) stream of small jobs
// from a fixed user population — the pure-ingest load shape.
type genSource struct {
	n, limit int
	users    []string
}

func newGenSource(limit int) *genSource {
	users := make([]string, 17)
	for i := range users {
		users[i] = "u" + strconv.Itoa(i)
	}
	return &genSource{limit: limit, users: users}
}

func (g *genSource) Next() (*job.Job, error) {
	if g.limit > 0 && g.n >= g.limit {
		return nil, io.EOF
	}
	g.n++
	return &job.Job{
		ID:       g.n,
		User:     g.users[g.n%len(g.users)],
		Submit:   units.Time(g.n),
		Nodes:    1 + g.n%4,
		Walltime: 900 * units.Second,
		Runtime:  600 * units.Second,
	}, nil
}

func (g *genSource) Skipped() int { return 0 }

// loadConfig carries one replay's knobs.
type loadConfig struct {
	addr       string
	accel      float64
	rate       float64 // offered jobs/s; 0 = unbounded
	workers    int
	max        int
	batch      int
	traceTimes bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amjs-load", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8080", "amjsd base URL")
		trace      = fs.String("trace", "sample", `trace: "sample", an SWF file path, or "gen[:N]" (synthetic, N jobs; 0 = unbounded)`)
		accel      = fs.Float64("accel", 0, "replay acceleration over trace inter-arrival gaps (0 = no pacing)")
		rate       = fs.Float64("rate", 0, "offered submission rate in jobs/s (0 = full speed)")
		curve      = fs.String("curve", "", `comma-separated offered rates to sweep ("20000,50000,100000"); overrides -rate`)
		stepDur    = fs.Duration("step-dur", 3*time.Second, "duration of each -curve step (sets the per-step job budget)")
		workers    = fs.Int("workers", 8, "concurrent submitters")
		max        = fs.Int("max", 0, "cap the number of jobs (0 = whole trace)")
		batch      = fs.Int("batch", 0, "jobs per POST (0 or 1 = single-job requests; >1 = array batches)")
		ppn        = fs.Int("ppn", 1, "processors per node in the trace")
		traceTimes = fs.Bool("trace-times", false, "forward trace submit times (speedup=inf daemon, single worker)")
		jsonOut    = fs.String("json", "", "write a BENCH-style JSON artifact to this path")
		minRate    = fs.Float64("min-rate", 0, "fail unless the peak achieved rate reaches this floor (jobs/s)")
		baseNote   = fs.String("baseline-note", "", "note describing the embedded baseline (with -baseline-rate)")
		baseRate   = fs.Float64("baseline-rate", 0, "pre-change submissions/s to embed as the artifact baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("need at least one worker")
	}
	if *traceTimes && *workers != 1 {
		return fmt.Errorf("-trace-times requires -workers 1 (submit times must stay monotonic)")
	}
	if *traceTimes && *batch > 1 {
		return fmt.Errorf("-trace-times requires single-job requests (batches interleave submit times)")
	}

	newSource, name, err := sourceFactory(*trace, *ppn)
	if err != nil {
		return err
	}
	cfg := loadConfig{
		addr: *addr, accel: *accel, rate: *rate,
		workers: *workers, max: *max, batch: *batch, traceTimes: *traceTimes,
	}
	client := newLoadClient(*workers)

	var steps []*summary
	if *curve != "" {
		rates, err := parseCurve(*curve)
		if err != nil {
			return err
		}
		src := newSource()
		for _, r := range rates {
			step := cfg
			step.rate = r
			if r > 0 {
				step.max = int(r * stepDur.Seconds())
				if step.max < 1 {
					step.max = 1
				}
			} else if step.max <= 0 {
				return fmt.Errorf("-curve rate 0 (full speed) needs -max to bound the step")
			}
			s, err := replay(client, step, src)
			if err != nil {
				return err
			}
			s.Skipped = src.Skipped()
			steps = append(steps, s)
			report(out, fmt.Sprintf("%s @ %s", name, offeredLabel(r)), s)
			fmt.Fprintln(out)
		}
	} else {
		src := newSource()
		s, err := replay(client, cfg, src)
		if err != nil {
			return err
		}
		s.Skipped = src.Skipped()
		steps = append(steps, s)
		report(out, name, s)
	}

	peak := 0.0
	for _, s := range steps {
		if s.PerSec > peak {
			peak = s.PerSec
		}
	}
	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, cfg, steps, peak, *baseNote, *baseRate); err != nil {
			return err
		}
		fmt.Fprintf(out, "artifact:   %s\n", *jsonOut)
	}
	if *minRate > 0 && peak < *minRate {
		return fmt.Errorf("peak achieved rate %.0f jobs/s below the -min-rate floor %.0f", peak, *minRate)
	}
	return nil
}

// sourceFactory resolves the -trace argument into a reusable source
// constructor (curve sweeps draw successive steps from one stream, but
// run() may also need a fresh one).
func sourceFactory(trace string, ppn int) (func() jobSource, string, error) {
	if trace == "gen" || strings.HasPrefix(trace, "gen:") {
		limit := 0
		if s, ok := strings.CutPrefix(trace, "gen:"); ok && s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				return nil, "", fmt.Errorf("bad -trace %q: want gen or gen:N", trace)
			}
			limit = n
		}
		return func() jobSource { return newGenSource(limit) }, trace, nil
	}
	if trace == "sample" {
		return func() jobSource {
			return workload.NewSWFSource(strings.NewReader(workload.SampleSWF),
				workload.SWFOptions{Source: "sample", ProcsPerNode: ppn}, 0)
		}, "sample", nil
	}
	path := strings.TrimPrefix(trace, "swf:")
	if _, err := os.Stat(path); err != nil {
		return nil, "", err
	}
	return func() jobSource {
		f, err := os.Open(path)
		if err != nil {
			panic(err) // stat'ed above; a disappearing file is not a load result
		}
		return &closingSWF{SWFSource: workload.NewSWFSource(f,
			workload.SWFOptions{Source: trace, ProcsPerNode: ppn}, 0), f: f}
	}, trace, nil
}

// closingSWF closes the underlying file when the trace is exhausted.
type closingSWF struct {
	*workload.SWFSource
	f *os.File
}

func (c *closingSWF) Next() (*job.Job, error) {
	j, err := c.SWFSource.Next()
	if err == io.EOF {
		c.f.Close()
	}
	return j, err
}

func parseCurve(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad -curve entry %q", part)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

func offeredLabel(r float64) string {
	if r <= 0 {
		return "full speed"
	}
	return fmt.Sprintf("%.0f/s offered", r)
}

// newLoadClient builds an HTTP client whose connection pool matches the
// worker pool: without MaxIdleConnsPerHost the default transport keeps
// only two idle connections per host, so every other worker re-dials on
// each request and the measured throughput is dial latency, not daemon
// ingest.
func newLoadClient(workers int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// batchCounts is the wire shape of a count-only batch response.
type batchCounts struct {
	Accepted int `json:"accepted"`
	Failed   int `json:"failed"`
}

// appendJobJSON renders one submission object. Trace user names are
// plain tokens; anything needing JSON escapes goes through Marshal.
func appendJobJSON(buf *bytes.Buffer, j *job.Job, traceTimes bool) {
	buf.WriteString(`{"user":`)
	if strings.ContainsAny(j.User, `"\`) {
		raw, _ := json.Marshal(j.User)
		buf.Write(raw)
	} else {
		buf.WriteByte('"')
		buf.WriteString(j.User)
		buf.WriteByte('"')
	}
	fmt.Fprintf(buf, `,"nodes":%d,"walltime_sec":%d,"runtime_sec":%d`,
		j.Nodes, int64(j.Walltime), int64(j.Runtime))
	if traceTimes {
		fmt.Fprintf(buf, `,"submit_sec":%d`, int64(j.Submit))
	}
	buf.WriteByte('}')
}

// replay streams jobs from src to the daemon and measures each POST.
func replay(client *http.Client, cfg loadConfig, src jobSource) (*summary, error) {
	batchSize := cfg.batch
	if batchSize < 1 {
		batchSize = 1
	}
	singleURL := cfg.addr + "/v1/jobs"
	batchURL := cfg.addr + "/v1/jobs?count=1"

	type obs struct {
		lat      []float64 // per-request latency, milliseconds
		accepted int
		apiErrs  int
		connErrs int
		firsts   []string
	}
	results := make([]obs, cfg.workers)
	batches := make(chan []*job.Job, cfg.workers*2)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &results[w]
			var buf bytes.Buffer
			fail := func(kind *int, msg string) {
				*kind++
				if len(o.firsts) < 3 {
					o.firsts = append(o.firsts, msg)
				}
			}
			for jobs := range batches {
				buf.Reset()
				single := len(jobs) == 1 && batchSize == 1
				url := batchURL
				if single {
					url = singleURL
					appendJobJSON(&buf, jobs[0], cfg.traceTimes)
				} else {
					buf.WriteByte('[')
					for i, j := range jobs {
						if i > 0 {
							buf.WriteByte(',')
						}
						appendJobJSON(&buf, j, cfg.traceTimes)
					}
					buf.WriteByte(']')
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(buf.Bytes()))
				lat := time.Since(t0).Seconds() * 1000
				if err != nil {
					fail(&o.connErrs, err.Error())
					continue
				}
				switch {
				case single && resp.StatusCode == http.StatusCreated:
					o.accepted++
					o.lat = append(o.lat, lat)
				case !single && resp.StatusCode == http.StatusOK:
					var bc batchCounts
					if err := json.NewDecoder(resp.Body).Decode(&bc); err != nil {
						fail(&o.connErrs, "bad batch response: "+err.Error())
					} else {
						o.accepted += bc.Accepted
						if bc.Failed > 0 {
							fail(&o.apiErrs, fmt.Sprintf("%d items rejected in batch", bc.Failed))
							o.apiErrs += bc.Failed - 1
						}
						o.lat = append(o.lat, lat)
					}
				default:
					msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
					fail(&o.apiErrs, fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
					if !single {
						o.apiErrs += len(jobs) - 1
					}
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				resp.Body.Close()
			}
		}(w)
	}

	// Producer: stream the trace. -accel paces on compressed trace
	// inter-arrival gaps; -rate paces open-loop at a fixed offered rate
	// (per job, so a batch is due when its last job is).
	var produceErr error
	sent := 0
	var traceStart units.Time
	first := true
	pending := make([]*job.Job, 0, batchSize)
	flush := func() {
		if len(pending) > 0 {
			batches <- pending
			pending = make([]*job.Job, 0, batchSize)
		}
	}
	for cfg.max <= 0 || sent < cfg.max {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			produceErr = err
			break
		}
		if first {
			traceStart, first = j.Submit, false
		}
		if cfg.accel > 0 {
			due := start.Add(time.Duration(float64(j.Submit.Sub(traceStart)) / cfg.accel * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				flush()
				time.Sleep(d)
			}
		}
		pending = append(pending, j)
		sent++
		if len(pending) >= batchSize {
			flush()
			if cfg.rate > 0 {
				due := start.Add(time.Duration(float64(sent) / cfg.rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
		}
	}
	flush()
	close(batches)
	wg.Wait()
	wall := time.Since(start).Seconds()
	if produceErr != nil {
		return nil, produceErr
	}

	var lats []float64
	s := &summary{Jobs: sent, WallSec: wall, Offered: cfg.rate}
	for _, o := range results {
		lats = append(lats, o.lat...)
		s.Accepted += o.accepted
		s.APIErrors += o.apiErrs
		s.ConnErrors += o.connErrs
		for _, e := range o.firsts {
			if len(s.FirstErrs) < 3 {
				s.FirstErrs = append(s.FirstErrs, e)
			}
		}
	}
	sort.Float64s(lats)
	if wall > 0 {
		s.PerSec = float64(s.Accepted) / wall
	}
	if n := len(lats); n > 0 {
		s.P50 = percentile(lats, 0.50)
		s.P90 = percentile(lats, 0.90)
		s.P99 = percentile(lats, 0.99)
		s.Max = lats[n-1]
	}
	return s, nil
}

// percentile reads the q-quantile from a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func report(out io.Writer, name string, s *summary) {
	fmt.Fprintf(out, "trace:      %s (%d jobs, %d skipped)\n", name, s.Jobs, s.Skipped)
	fmt.Fprintf(out, "submitted:  %d ok, %d rejected, %d connection errors in %.2f s (%.0f submissions/s)\n",
		s.Accepted, s.APIErrors, s.ConnErrors, s.WallSec, s.PerSec)
	fmt.Fprintf(out, "latency:    p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms  (per request)\n",
		s.P50, s.P90, s.P99, s.Max)
	for _, e := range s.FirstErrs {
		fmt.Fprintf(out, "error:      %s\n", e)
	}
}

// --- artifact output --------------------------------------------------

type artifactBench struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

type artifactStep struct {
	OfferedPerSec  float64 `json:"offered_per_sec"` // 0 = unbounded
	AchievedPerSec float64 `json:"achieved_per_sec"`
	Jobs           int     `json:"jobs"`
	APIErrors      int     `json:"api_errors"`
	ConnErrors     int     `json:"conn_errors"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`
}

type artifact struct {
	Date string `json:"date"`
	Go   string `json:"go"`
	Env  struct {
		GoMaxProcs int    `json:"gomaxprocs"`
		CPU        string `json:"cpu"`
	} `json:"env"`
	Note     string `json:"note,omitempty"`
	Baseline *struct {
		Note       string          `json:"note"`
		Benchmarks []artifactBench `json:"benchmarks"`
	} `json:"baseline,omitempty"`
	Benchmarks  []artifactBench `json:"benchmarks"`
	IngestCurve []artifactStep  `json:"ingest_curve"`
}

// writeArtifact renders the run as a JSON benchmark artifact: each
// step becomes an IngestHTTP/... entry (ns_per_op = 1e9/achieved
// rate) and the saturation curve is embedded verbatim.
func writeArtifact(path string, cfg loadConfig, steps []*summary, peak float64, baseNote string, baseRate float64) error {
	a := artifact{
		Date: time.Now().UTC().Format(time.RFC3339),
		Go:   runtime.Version(),
	}
	a.Env.GoMaxProcs = runtime.GOMAXPROCS(0)
	a.Env.CPU = cpuModel()
	batch := cfg.batch
	if batch < 1 {
		batch = 1
	}
	for _, s := range steps {
		name := fmt.Sprintf("IngestHTTP/batch=%d/offered=%s", batch, rateToken(s.Offered))
		if s.PerSec > 0 {
			a.Benchmarks = append(a.Benchmarks, artifactBench{
				Name: name, NsPerOp: 1e9 / s.PerSec, JobsPerSec: s.PerSec,
			})
		}
		a.IngestCurve = append(a.IngestCurve, artifactStep{
			OfferedPerSec: s.Offered, AchievedPerSec: s.PerSec, Jobs: s.Jobs,
			APIErrors: s.APIErrors, ConnErrors: s.ConnErrors,
			P50Ms: s.P50, P90Ms: s.P90, P99Ms: s.P99,
		})
	}
	if peak > 0 {
		a.Benchmarks = append(a.Benchmarks, artifactBench{
			Name: "IngestHTTP/peak", NsPerOp: 1e9 / peak, JobsPerSec: peak,
		})
	}
	if baseRate > 0 {
		a.Baseline = &struct {
			Note       string          `json:"note"`
			Benchmarks []artifactBench `json:"benchmarks"`
		}{
			Note: baseNote,
			Benchmarks: []artifactBench{{
				Name: "IngestHTTP/peak", NsPerOp: 1e9 / baseRate, JobsPerSec: baseRate,
			}},
		}
	}
	data, err := json.MarshalIndent(&a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func rateToken(r float64) string {
	if r <= 0 {
		return "max"
	}
	return strconv.Itoa(int(r))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
