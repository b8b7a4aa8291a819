// Package core implements the paper's contribution: metric-aware job
// scheduling (balanced priority scoring plus window-based allocation,
// §III-B) and adaptive policy tuning (§III-C, Algorithm 1).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"amjs/internal/job"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// ScoreWait is Eq. (1): the job-age score, mapped to [0, 100]. A job
// that has waited as long as the longest-waiting job in the queue scores
// 100; a fresh job scores near 0. When the maximum wait is zero (a job
// just arrived to an empty queue) the score is 0.
//
// Note: the paper's equation prints wait_max/wait_i, which exceeds 100
// and inverts the stated semantics (BF→1 must approach FCFS); we
// implement the evidently intended wait_i/wait_max. See DESIGN.md §2.
func ScoreWait(wait, waitMax units.Duration) float64 {
	if waitMax <= 0 {
		return 0
	}
	if wait < 0 {
		wait = 0
	}
	return 100 * float64(wait) / float64(waitMax)
}

// ScoreRuntime is Eq. (2): the job-shortness score, mapped to [0, 100].
// The shortest requested walltime in the queue scores 100, the longest
// scores 0. With a single job in the queue (max == min) the score is 0.
func ScoreRuntime(walltime, wallMin, wallMax units.Duration) float64 {
	if wallMax <= wallMin {
		return 0
	}
	return 100 * float64(wallMax-walltime) / float64(wallMax-wallMin)
}

// BalancedPriority is Eq. (3): S_p = BF*S_w + (1-BF)*S_r. BF near 1
// favours fairness (job age); BF near 0 favours efficiency (short jobs).
// The scorer pass evaluates Eq. 3 as the scorer pair
// {wait, BF}, {short, 1-BF}, summed from zero — (0 + BF*S_w) +
// (1-BF)*S_r, which is bit-equal to this.
func BalancedPriority(sw, sr, bf float64) float64 {
	return bf*sw + (1-bf)*sr
}

// Scorer weights one normalised job feature in a queue ranking: a job's
// priority is the sum of Weight × feature over the scorers, and the
// queue is served highest first under sched.ComparePriority. Eq. (3) is
// the pair {wait, BF}, {short, 1-BF}; the paper's §V extension is any
// weighted set. Weights need not sum to 1; a negative weight inverts a
// feature. Each feature maps a job to [0, 100] (higher = more urgent),
// normalised over the whole queue:
//
//	wait     Eq. (1): job age over the longest current wait (fairness)
//	short    Eq. (2): walltime shortness within the queue's walltime band
//	large    node request within the queue's node band (capability jobs)
//	small    100 minus large (small jobs pack fragmentation holes)
//	lowcost  node-time (walltime × nodes) cheapness within the queue's
//	         band — on power-capped machines the first-order energy proxy
type Scorer struct {
	Name   string
	Weight float64
}

// WaitScorer favours long-waiting jobs (fairness, FCFS-like).
func WaitScorer(weight float64) Scorer { return Scorer{"wait", weight} }

// ShortJobScorer favours short walltimes (turnaround, SJF-like).
func ShortJobScorer(weight float64) Scorer { return Scorer{"short", weight} }

// LargeJobScorer favours capability-class jobs.
func LargeJobScorer(weight float64) Scorer { return Scorer{"large", weight} }

// SmallJobScorer favours small jobs.
func SmallJobScorer(weight float64) Scorer { return Scorer{"small", weight} }

// LowCostScorer favours jobs about to consume the least node-time.
func LowCostScorer(weight float64) Scorer { return Scorer{"lowcost", weight} }

// feature indexes the scorer features; featureNames spells them.
type feature uint8

const (
	featWait feature = iota
	featShort
	featLarge
	featSmall
	featLowCost
	numFeatures
)

var featureNames = [numFeatures]string{"wait", "short", "large", "small", "lowcost"}

// Validate reports why sc cannot rank a queue: an unknown feature name,
// or a non-finite weight (a NaN priority compares equal to everything
// and a ±Inf weight turns a zero feature into NaN).
func (sc Scorer) Validate() error {
	if _, ok := lookupFeature(sc.Name); !ok {
		return fmt.Errorf("core: unknown scorer %q (want one of %v)", sc.Name, featureNames)
	}
	if math.IsNaN(sc.Weight) || math.IsInf(sc.Weight, 0) {
		return fmt.Errorf("core: scorer %s has non-finite weight %v", sc.Name, sc.Weight)
	}
	return nil
}

func lookupFeature(name string) (feature, bool) {
	for f, n := range featureNames {
		if n == name {
			return feature(f), true
		}
	}
	return 0, false
}

// clockFreeRanking reports whether the scorers rank a fixed queue in
// the same order at every instant. Only the wait feature moves with the
// clock, and alone it never reorders: every wait score scales by the
// same longest wait. So a set that weights no wait, or weights only
// wait and only positively (longest wait first agrees with the submit
// tie-break), is clock-free. Eq. (3) is clock-free at BF 0 and 1.
func clockFreeRanking(scorers []Scorer) bool {
	wait, rest := false, false
	for _, sc := range scorers {
		switch {
		case sc.Weight == 0:
		case sc.Name == "wait":
			wait = true
			rest = rest || sc.Weight < 0
		default:
			rest = true
		}
	}
	return !wait || !rest
}

// balanced is Eq. (3) as a scorer pair; the caller slices it, so the
// pair lives on the stack.
func balanced(bf float64) [2]Scorer { return [2]Scorer{WaitScorer(bf), ShortJobScorer(1 - bf)} }

// NewMultiMetric builds a metric-aware scheduler that ranks the queue
// by a weighted set of scorers (the paper's §V extension), with the
// same window-based allocation as the Eq. (3) scheduler:
// NewMultiMetric(w, WaitScorer(bf), ShortJobScorer(1-bf)) schedules
// exactly as NewMetricAware(bf, w). It panics on an empty scorer list,
// an invalid scorer (see Scorer.Validate) or a non-positive window
// (configuration errors).
func NewMultiMetric(w int, scorers ...Scorer) *MetricAware {
	if len(scorers) == 0 {
		panic("core: multi-metric scheduler needs at least one scorer")
	}
	for _, sc := range scorers {
		if err := sc.Validate(); err != nil {
			panic(err.Error())
		}
	}
	if w < 1 {
		panic(fmt.Sprintf("core: window size %d < 1", w))
	}
	return &MetricAware{BF: 1, W: w, scorers: slices.Clone(scorers)}
}

// Prioritize performs Steps 1–4 of the metric-aware algorithm: it scores
// every queued job and returns a new slice sorted by balanced priority,
// highest first. Ties are broken by submission time then ID, so BF=1
// yields exactly the FCFS order.
func Prioritize(now units.Time, queue []*job.Job, bf float64) []*job.Job {
	sc := balanced(bf)
	return MultiPrioritize(now, queue, sc[:])
}

// MultiPrioritize is Prioritize over any scorer set (§V): it returns a
// new slice sorted by the weighted feature sum, highest first, ties
// broken by (submit, ID). It panics on a scorer with an unknown name.
func MultiPrioritize(now units.Time, queue []*job.Job, scorers []Scorer) []*job.Job {
	var scratch prioScratch
	return append([]*job.Job(nil), scratch.prioritize(now, queue, scorers)...)
}

// prioScratch holds the scoring and sorting buffers of one Prioritize
// pass. The metric-aware scheduler keeps one per instance so that after
// warm-up a scheduling pass allocates nothing for scoring: the paper's
// evaluation needs thousands of simulations, each running this on every
// pass of every nested fairness simulation.
//
// It also remembers the last call's order, so the next call repairs it
// instead of sorting from scratch: jobs is the last sorted output and
// rank[i] the rank of the last queue's i-th job, so jobs[rank[i]] is
// that job. Between passes survivors keep their arrival order and
// arrivals are appended, so one walk re-finds the survivors and an
// insertion sort finishes the nearly sorted result (see seed).
type prioScratch struct {
	jobs    []*job.Job
	rank    []int32
	entries []prioEntry

	// aggHorizon is the latest submit time among the earliest-submitted
	// holders of both band ends of every in-use feature after the last
	// prioritize call. A feature scales every job's score by its band,
	// so any nonempty submit-prefix of the queue extending to
	// aggHorizon retains every band and scores all shared jobs
	// identically. (The wait anchor, the longest wait, belongs to the
	// earliest-submitted job of all and survives every nonempty prefix
	// for free.) Feeds sched.PassReport.
	aggHorizon units.Time
}

// bands are one pass's queue-wide feature bands. They live on the stack
// of the pass: a scratch that carried them would cost every fair-world
// scheduler clone a larger allocation.
type bands struct {
	waitMax units.Duration
	wall    span[units.Duration]
	nodes   span[int]
	cost    span[float64]
}

// span is one feature's queue-wide [lo, hi] band with the submit time
// of the earliest-submitted holder of each end.
type span[T cmp.Ordered] struct {
	lo, hi     T
	loAt, hiAt units.Time
}

func (s *span[T]) add(v T, at units.Time) {
	if v < s.lo || (v == s.lo && at < s.loAt) {
		s.lo, s.loAt = v, at
	}
	if v > s.hi || (v == s.hi && at < s.hiAt) {
		s.hi, s.hiAt = v, at
	}
}

// prioEntry pairs a job with its priority so the sort moves one small
// struct instead of two parallel arrays through an interface; pos is the
// job's position in the queue, from which the sorted order's rank
// record is written.
type prioEntry struct {
	score float64
	j     *job.Job
	pos   int32
}

func comparePrio(a, b prioEntry) int { return sched.ComparePriority(a.score, a.j, b.score, b.j) }

// repairMoves bounds the insertion sort that finishes a seeded order:
// once it has shifted more than repairMoves × n entries the hint was
// poor, and a full sort takes over.
const repairMoves = 4

func nodeTime(j *job.Job) float64 { return float64(j.Nodes) * float64(j.Walltime) }

// prioritize scores queue into the scratch buffers and sorts them by
// the scorers' weighted feature sum, highest first, under
// sched.ComparePriority. seed lays the entries out in the last call's
// order and one pass collects the bands of the features in use; then
// each scorer in turn adds weight × feature to every entry, and the
// nearly sorted entries are finished by insertion. The returned slice
// is scratch, valid until the next call.
func (p *prioScratch) prioritize(now units.Time, queue []*job.Job, scorers []Scorer) []*job.Job {
	if len(queue) == 0 {
		return nil
	}
	var use [numFeatures]bool
	feats := make([]feature, 0, 8) // on the stack for up to 8 scorers
	for _, sc := range scorers {
		f, ok := lookupFeature(sc.Name)
		if !ok {
			panic(fmt.Sprintf("core: unknown scorer %q", sc.Name))
		}
		feats = append(feats, f)
		use[f] = true
	}
	sizes := use[featLarge] || use[featSmall]
	j0 := queue[0]
	b := bands{
		wall:  span[units.Duration]{j0.Walltime, j0.Walltime, j0.Submit, j0.Submit},
		nodes: span[int]{j0.Nodes, j0.Nodes, j0.Submit, j0.Submit},
		cost:  span[float64]{nodeTime(j0), nodeTime(j0), j0.Submit, j0.Submit},
	}
	seeded := p.seed(queue)
	for _, j := range queue {
		if w := j.WaitAt(now); w > b.waitMax {
			b.waitMax = w
		}
		if use[featShort] {
			b.wall.add(j.Walltime, j.Submit)
		}
		if sizes {
			b.nodes.add(j.Nodes, j.Submit)
		}
		if use[featLowCost] {
			b.cost.add(nodeTime(j), j.Submit)
		}
	}
	// The wait anchor needs no holder: the longest wait belongs to the
	// earliest-submitted job, which every nonempty prefix keeps.
	p.aggHorizon = units.Time(math.MinInt64)
	for _, a := range [...]struct {
		on bool
		at units.Time
	}{
		{use[featShort], b.wall.loAt}, {use[featShort], b.wall.hiAt},
		{sizes, b.nodes.loAt}, {sizes, b.nodes.hiAt},
		{use[featLowCost], b.cost.loAt}, {use[featLowCost], b.cost.hiAt},
	} {
		if a.on && a.at > p.aggHorizon {
			p.aggHorizon = a.at
		}
	}
	for i, f := range feats {
		b.add(p.entries, f, scorers[i].Weight, now)
	}
	if seeded == 0 || !insertionSort(p.entries, repairMoves*len(p.entries)) {
		slices.SortFunc(p.entries, comparePrio)
	}
	p.jobs = p.jobs[:0]
	for r, e := range p.entries {
		p.jobs = append(p.jobs, e.j)
		p.rank[e.pos] = int32(r)
	}
	return p.jobs
}

// seed fills the entries with queue's jobs in the last call's order:
// survivors at their old ranks, then the jobs the walk could not match
// (arrivals) in queue order. It returns the number of survivors. The
// walk pairs queue with the last queue, jobs[rank[i]] for increasing i:
// a last-queue job the current queue does not reach next has left.
// Scores are left zero.
//
// Whatever the hint holds — a scratch that ranked another world's
// queue, or a recycled job pointer — the entries are exactly queue's
// jobs, each once, so the sort that follows returns the one order
// ComparePriority (a strict total order: IDs are unique) allows. A
// poor hint costs time, never correctness.
func (p *prioScratch) seed(queue []*job.Job) int {
	n, m := len(queue), len(p.rank)
	// Grown as append grows, so a queue that deepens one job a pass
	// reallocates only now and then.
	es := slices.Grow(p.entries[:0], max(n, m))[:max(n, m)]
	// es[r] receives the survivor of old rank r; a departed job's slot
	// is cleared.
	k := 0
	for i := 0; i < m; i++ {
		r := p.rank[i]
		if old := p.jobs[r]; k < n && queue[k] == old {
			es[r] = prioEntry{j: old, pos: int32(k)}
			k++
		} else {
			es[r].j = nil
		}
	}
	w := 0
	for _, e := range es[:m] {
		if e.j != nil {
			es[w] = e
			w++
		}
	}
	survivors := w
	for ; k < n; k++ {
		es[w] = prioEntry{j: queue[k], pos: int32(k)}
		w++
	}
	p.entries = es[:n]
	p.rank = slices.Grow(p.rank[:0], n)[:n]
	return survivors
}

// insertionSort sorts es under comparePrio by insertion, giving up
// (false, es left a permutation of its input) once more than budget
// entries have been shifted.
func insertionSort(es []prioEntry, budget int) bool {
	for i := 1; i < len(es); i++ {
		e := es[i]
		k := i
		for k > 0 && comparePrio(e, es[k-1]) < 0 {
			k--
		}
		if k == i {
			continue
		}
		if budget -= i - k; budget < 0 {
			return false
		}
		copy(es[k+1:i+1], es[k:i])
		es[k] = e
	}
	return true
}

// add sums w × feature f into every entry's score against these bands.
// One feature at a time keeps the switch out of the per-job loop; each
// entry still sums its terms in scorer order.
func (b *bands) add(es []prioEntry, f feature, w float64, now units.Time) {
	switch f {
	case featWait:
		for i := range es {
			es[i].score += w * ScoreWait(es[i].j.WaitAt(now), b.waitMax)
		}
	case featShort:
		lo, hi := b.wall.lo, b.wall.hi
		for i := range es {
			es[i].score += w * ScoreRuntime(es[i].j.Walltime, lo, hi)
		}
	case featLarge, featSmall:
		lo, width := b.nodes.lo, b.nodes.hi-b.nodes.lo
		for i := range es {
			frac := 0.0
			if width > 0 {
				frac = float64(es[i].j.Nodes-lo) / float64(width)
			}
			if f == featSmall {
				frac = 1 - frac
			}
			es[i].score += w * (100 * frac)
		}
	case featLowCost:
		// A flat band scores every job 0, which adds nothing: a score
		// summed from +0 is never -0, so adding ±0 leaves it unchanged.
		if lo, hi := b.cost.lo, b.cost.hi; hi > lo {
			for i := range es {
				es[i].score += w * (100 * (hi - nodeTime(es[i].j)) / (hi - lo))
			}
		}
	}
}
