package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"amjs/internal/job"
	"amjs/internal/rng"
	"amjs/internal/units"
)

// Source delivers a job trace one job at a time, in nondecreasing
// submit order. It is the streaming counterpart of a materialized
// []*job.Job slice: a year-long production trace can be replayed in
// O(live window) memory because the simulator only ever needs the jobs
// that have arrived and not yet completed.
//
// Next returns (nil, io.EOF) when the trace is exhausted. Any other
// error aborts the replay.
type Source interface {
	Next() (*job.Job, error)
}

// Collect drains a source into a slice — the bridge back to every API
// that wants a materialized trace, Config.Generate among them. At the
// million-job scale, feed the source to sim.RunStream instead.
func Collect(src Source) ([]*job.Job, error) {
	var jobs []*job.Job
	for {
		j, err := src.Next()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
}

// SliceSource adapts an already-materialized, submit-ordered trace to
// the Source interface. The jobs are handed out as-is (not cloned).
func SliceSource(jobs []*job.Job) Source {
	return &sliceSource{jobs: jobs}
}

type sliceSource struct {
	jobs []*job.Job
	i    int
}

// Next implements Source.
func (s *sliceSource) Next() (*job.Job, error) {
	if s.i >= len(s.jobs) {
		return nil, io.EOF
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// DefaultSWFSlack is the reorder window NewSWFSource tolerates: records
// whose submit times are out of order by less than this are silently
// re-sorted in the streaming buffer. Parallel Workloads Archive traces
// are sorted or very nearly so; an hour absorbs every known case while
// keeping the buffer a sliver of the trace.
const DefaultSWFSlack = units.Hour

// SWFSource streams an SWF trace from an io.Reader without
// materializing it: jobs come out in (submit, ID) order with submit
// times rebased to zero, exactly as ReadSWF orders them, but only the
// records inside the reorder window are held in memory.
//
// Out-of-order records are tolerated up to the slack: a record is
// released only once every record read so far submits at least slack
// later (or the trace ended), so any two records whose submit times
// disagree with file order by less than the slack are emitted in sorted
// order. A record arriving more than the slack out of order is an
// error — streaming cannot sort what it has already emitted.
type SWFSource struct {
	sc      *bufio.Scanner
	ppn     int
	opt     SWFOptions
	slack   units.Duration
	lineNo  int
	skipped int

	buf      minHeap[swfRecord] // reorder buffer by (submit, ID, line)
	maxSeen  units.Time
	lastOut  units.Time // submit and ID of the last emitted record
	lastID   int
	base     units.Time
	haveBase bool
	eof      bool
}

// swfRecord is a parsed job with its line number, which breaks (submit,
// ID) ties in file order as Rebase's stable sort does.
type swfRecord struct {
	j    *job.Job
	line int
}

// NewSWFSource returns a streaming SWF parser over r. A slack of 0
// selects DefaultSWFSlack.
func NewSWFSource(r io.Reader, opt SWFOptions, slack units.Duration) *SWFSource {
	ppn := opt.ProcsPerNode
	if ppn <= 0 {
		ppn = 1
	}
	if slack <= 0 {
		slack = DefaultSWFSlack
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &SWFSource{sc: sc, ppn: ppn, opt: opt, slack: slack,
		buf: minHeap[swfRecord]{less: func(a, b swfRecord) bool {
			c := compareSubmitID(a.j, b.j)
			return c < 0 || c == 0 && a.line < b.line
		}}}
}

// Skipped reports how many unusable records have been dropped so far
// (final once Next has returned io.EOF).
func (s *SWFSource) Skipped() int { return s.skipped }

// Next implements Source.
func (s *SWFSource) Next() (*job.Job, error) {
	// Read ahead until the earliest buffered record is provably safe to
	// release: nothing later in the file may precede it by the slack
	// contract. Submits are never negative and maxSeen bounds every
	// buffered one, so the difference cannot overflow.
	for !s.eof && (s.buf.Len() == 0 || s.maxSeen.Sub(s.buf.min().j.Submit) < s.slack) {
		j, err := s.scanRecord()
		if err != nil {
			return nil, err
		}
		if j == nil {
			continue // skipped or EOF (eof flag set)
		}
		if j.Submit < s.lastOut || j.Submit == s.lastOut && j.ID < s.lastID {
			return nil, &SWFError{
				Source: s.opt.Source, Line: s.lineNo, Field: swfFieldNames[swfSubmit],
				Msg: fmt.Sprintf("submit time %d out of order by more than the %v reorder slack (already emitted up to %d)",
					int64(j.Submit), s.slack, int64(s.lastOut)),
			}
		}
		s.maxSeen = max(s.maxSeen, j.Submit)
		s.buf.push(swfRecord{j, s.lineNo})
	}
	if s.buf.Len() == 0 {
		return nil, io.EOF
	}
	j := s.buf.pop().j
	if !s.haveBase {
		s.base, s.haveBase = j.Submit, true
	}
	s.lastOut, s.lastID = j.Submit, j.ID
	j.Submit -= s.base
	return j, nil
}

// scanRecord parses lines until one yields a usable job, is skipped
// (returns nil, nil with skipped incremented), or the input ends
// (returns nil, nil with eof set).
func (s *SWFSource) scanRecord() (*job.Job, error) {
	for s.sc.Scan() {
		s.lineNo++
		j, skip, err := parseSWFLine(s.sc.Text(), s.lineNo, s.ppn, s.opt)
		if err != nil {
			return nil, err
		}
		if skip {
			s.skipped++
			return nil, nil
		}
		if j != nil {
			return j, nil
		}
		// Comment or blank line: keep scanning.
	}
	if err := s.sc.Err(); err != nil {
		src := s.opt.Source
		if src == "" {
			src = "SWF"
		}
		return nil, fmt.Errorf("workload: reading %s: %w", src, err)
	}
	s.eof = true
	return nil, nil
}

// minHeap is a binary min-heap under less.
type minHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *minHeap[T]) Len() int { return len(h.items) }
func (h *minHeap[T]) min() T   { return h.items[0] }

func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *minHeap[T]) pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}

// Stream returns a Source yielding the synthetic workload one job at a
// time, sorted by submit time with IDs assigned 1..n in that order,
// without materializing the trace (Generate collects it). Arrival
// instants come out of order only boundedly: a burst spreads its extra
// submissions at most BurstSpread past the arrival that opened it, and
// the base arrival clock is monotone. So a pending min-heap drained up
// to the base clock emits them sorted while holding only the arrivals
// still inside the reorder window. Job attributes are drawn per emitted
// index from split RNG streams, so the arrival process and the
// attributes never perturb each other.
func (c *Config) Stream() (Source, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cc := *c
	root := rng.New(cc.Seed)
	g := &genStream{
		c:          &cc,
		arrivalRng: root.Split("arrivals"),
		sizeRng:    root.Split("sizes"),
		runRng:     root.Split("runtimes"),
		wallRng:    root.Split("walltimes"),
		userRng:    root.Split("users"),
		burstRng:   root.Split("bursts"),
		pending:    minHeap[units.Time]{less: func(a, b units.Time) bool { return a < b }},
	}
	weights := make([]float64, len(cc.Sizes))
	for i, s := range cc.Sizes {
		weights[i] = s.Weight
	}
	g.sizeDist = rng.NewWeighted(weights)
	g.userDist = rng.NewZipf(cc.Users, cc.UserSkew)
	baseRate := 1 / float64(cc.Arrival.MeanInterarrival)
	g.maxRate = baseRate * (1 + cc.Arrival.DiurnalAmplitude)
	return g, nil
}

// genStream is the incremental synthetic generator behind
// Config.Stream.
type genStream struct {
	c          *Config
	arrivalRng *rng.Source
	sizeRng    *rng.Source
	runRng     *rng.Source
	wallRng    *rng.Source
	userRng    *rng.Source
	burstRng   *rng.Source
	sizeDist   *rng.Weighted
	userDist   *rng.Zipf
	maxRate    float64

	t         float64             // base arrival clock (monotone)
	generated int                 // arrivals produced so far (the MaxJobs cap counter)
	pending   minHeap[units.Time] // arrivals not yet emitted
	genDone   bool
	emitted   int
}

func (g *genStream) capReached() bool {
	return g.c.MaxJobs > 0 && g.generated >= g.c.MaxJobs
}

// step runs one iteration of the arrival process: one base
// interarrival draw, the thinning test, and the optional burst.
func (g *genStream) step() {
	if g.capReached() {
		g.genDone = true
		return
	}
	g.t += g.arrivalRng.Exp(1 / g.maxRate)
	if units.Duration(g.t) > g.c.Horizon {
		g.genDone = true
		return
	}
	if g.arrivalRng.Float64() >= g.c.rateAt(units.Time(g.t))/g.maxRate {
		return // thinned
	}
	g.pending.push(units.Time(g.t))
	g.generated++
	if g.c.Arrival.BurstProb > 0 && g.burstRng.Bool(g.c.Arrival.BurstProb) {
		n := 1 + g.burstRng.Intn(2*g.c.Arrival.MeanBurstSize)
		for k := 0; k < n && !g.capReached(); k++ {
			off := units.Duration(g.burstRng.Float64() * float64(g.c.Arrival.BurstSpread))
			st := units.Time(g.t).Add(off)
			if units.Duration(st) <= g.c.Horizon {
				g.pending.push(st)
				g.generated++
			}
		}
	}
}

// Next implements Source.
func (g *genStream) Next() (*job.Job, error) {
	// The earliest pending arrival is final once the base clock passes
	// it: every future submit is at least the current base clock.
	for !g.genDone && (g.pending.Len() == 0 || g.pending.min() > units.Time(g.t)) {
		g.step()
	}
	if g.pending.Len() == 0 {
		return nil, io.EOF
	}
	submit := g.pending.pop()
	c := g.c
	nodes := c.Sizes[g.sizeDist.Draw(g.sizeRng)].Nodes
	if c.OddSizeProb > 0 && g.sizeRng.Bool(c.OddSizeProb) && nodes > 1 {
		nodes = 1 + int(float64(nodes-1)*g.sizeRng.Uniform(0.55, 1.0))
	}
	runtime := units.Duration(g.runRng.LogNormal(math.Log(c.Runtime.MedianSeconds), c.Runtime.Sigma)).
		Clamp(c.Runtime.Min, c.Runtime.Max)
	walltime := c.drawWalltime(g.wallRng, runtime)
	g.emitted++
	j := &job.Job{
		ID:       g.emitted,
		User:     fmt.Sprintf("u%d", g.userDist.Draw(g.userRng)+1),
		Submit:   submit,
		Nodes:    nodes,
		Walltime: walltime,
		Runtime:  runtime,
	}
	if err := j.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid job: %w", err)
	}
	return j, nil
}
