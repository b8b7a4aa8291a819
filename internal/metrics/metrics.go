// Package metrics implements the paper's evaluation metrics (§IV-A):
// per-job waiting time, queue depth, fairness (unfair-job counting
// against an oracle fair start time), system utilization with rolling
// 1H/10H/24H averages, and loss of capacity (Eq. 4).
//
// A Collector is fed by the simulation engine: once after every
// scheduling step (event batch + scheduling pass) and once per
// checkpoint; per-job hooks fire at job start and completion.
package metrics

import (
	"amjs/internal/job"
	"amjs/internal/stats"
	"amjs/internal/units"
)

// Collector accumulates every metric for one simulation run.
type Collector struct {
	totalNodes int

	// Busy is the step function of occupied nodes over time (whole
	// partitions on a partitioned machine); Used counts only nodes the
	// running jobs requested.
	Busy stats.StepSeries
	Used stats.StepSeries

	// Checkpoint series, sampled every checking interval.
	QD          stats.Series // queue depth, minutes
	UtilInstant stats.Series
	Util1H      stats.Series
	Util10H     stats.Series
	Util24H     stats.Series
	BF          stats.Series // balance factor over time (adaptive runs)
	W           stats.Series // window size over time (adaptive runs)

	// Per-job waits (minutes) and bounded slowdowns fold into running
	// counts, sums and peaks as jobs start; no sample is retained.
	started   int
	waitSum   float64
	waitPeak  float64
	sdSum     float64
	sdPeak    float64
	unfair    int
	fairKnown int

	// Lean (streaming) mode: the Busy/Used step histories are compacted
	// behind the retention window, so the collector's memory stays
	// O(retained window) regardless of trace length. See SetLean.
	lean     bool
	keep     units.Duration
	busyInt  float64 // incremental ∫busy dt (the compacted series can't provide it)
	usedInt  float64
	lastBusy int
	lastUsed int

	// Loss-of-capacity integration (Eq. 4): between scheduling events i
	// and i+1, n_i idle nodes count as lost iff some queued job would
	// fit in them (δ_i = 1).
	locNodeSec float64
	haveStep   bool
	lastStep   units.Time
	lastIdle   int
	lastDelta  bool

	firstEvent units.Time
	lastEvent  units.Time
	finished   int
	killed     int

	// Window-lookup cursors: checkpoints query the Busy series at
	// non-decreasing times, so each rolling-window endpoint resolves in
	// amortized O(1) instead of rescanning (binary-searching) the whole
	// step history. One start cursor per window width, one shared end
	// cursor, one cursor for the instantaneous sample.
	winStart map[units.Duration]*stats.Cursor
	winEnd   stats.Cursor
	atCur    stats.Cursor
}

// NewCollector returns a collector for a machine of the given size.
func NewCollector(totalNodes int) *Collector {
	if totalNodes <= 0 {
		panic("metrics: non-positive machine size")
	}
	return &Collector{totalNodes: totalNodes}
}

// TotalNodes returns the machine size the collector was built for.
func (c *Collector) TotalNodes() int { return c.totalNodes }

// SetLean switches the collector to bounded memory for runs too long
// to retain history: the checkpoint series stay empty (they grow with
// simulated time), utilization integrates incrementally, and each
// Compact call drops Busy/Used history older than keep. The per-job
// aggregates are the same in both modes. keep must cover the widest
// rolling window still queried (the checkpoint series sample up to 24
// hours); rolling-window queries reaching further back than keep see
// the history clipped at the compaction point. Call before the first
// sample.
func (c *Collector) SetLean(keep units.Duration) {
	if keep <= 0 {
		panic("metrics: non-positive lean retention window")
	}
	c.lean = true
	c.keep = keep
}

// Compact discards step history the lean retention contract no longer
// needs, measured back from now. No-op unless SetLean was called.
func (c *Collector) Compact(now units.Time) {
	if !c.lean {
		return
	}
	cutoff := now.Add(-c.keep)
	c.Busy.CompactBefore(cutoff)
	c.Used.CompactBefore(cutoff)
}

// OnScheduleStep records the post-scheduling state at a scheduling
// event: the busy/used node counts and whether any queued job would fit
// in the idle nodes (the δ of Eq. 4).
func (c *Collector) OnScheduleStep(now units.Time, busy, used int, queuedFits bool) {
	if c.haveStep {
		if now < c.lastStep {
			panic("metrics: scheduling steps out of order")
		}
		if c.lastDelta {
			c.locNodeSec += float64(c.lastIdle) * float64(now-c.lastStep)
		}
		if c.lean {
			dt := float64(now - c.lastStep)
			c.busyInt += float64(c.lastBusy) * dt
			c.usedInt += float64(c.lastUsed) * dt
		}
	} else {
		c.firstEvent = now
		c.haveStep = true
	}
	c.lastBusy = busy
	c.lastUsed = used
	c.lastStep = now
	c.lastIdle = c.totalNodes - busy
	c.lastDelta = queuedFits
	c.lastEvent = now
	c.Busy.Set(now, float64(busy))
	c.Used.Set(now, float64(used))
}

// OnJobStart records a job's wait and, when the fairness oracle supplied
// a fair start time, whether the start was unfair (actual start beyond
// fair start plus tolerance).
func (c *Collector) OnJobStart(j *job.Job, fairStart units.Time, tolerance units.Duration, fairKnown bool) {
	// Waits are ≥ 0 and slowdowns ≥ 1, so peaks starting from 0 are
	// the sample maxima.
	wait := j.Wait().Minutes()
	sd := j.Slowdown(slowdownTau)
	c.started++
	c.waitSum += wait
	c.sdSum += sd
	c.waitPeak = max(c.waitPeak, wait)
	c.sdPeak = max(c.sdPeak, sd)
	if fairKnown {
		c.fairKnown++
		if j.Start > fairStart.Add(tolerance) {
			c.unfair++
		}
	}
}

// OnJobEnd records a completion.
func (c *Collector) OnJobEnd(j *job.Job) {
	if j.State == job.Killed {
		c.killed++
	} else {
		c.finished++
	}
}

// QueueDepthMinutes computes the paper's queue-depth metric for the
// given queue at instant now: the sum of the waiting time each queued
// job has endured so far, in minutes.
func QueueDepthMinutes(now units.Time, queue []*job.Job) float64 {
	total := 0.0
	for _, j := range queue {
		total += j.WaitAt(now).Minutes()
	}
	return total
}

// UtilWindowAvg returns the machine utilization averaged over the
// trailing window ending at now (1.0 = fully busy). Successive calls
// with non-decreasing now are amortized O(1) per call (per distinct
// window width); time never runs backwards in a simulation, so every
// caller gets the fast path.
func (c *Collector) UtilWindowAvg(now units.Time, w units.Duration) float64 {
	if c.winStart == nil {
		c.winStart = make(map[units.Duration]*stats.Cursor)
	}
	start := c.winStart[w]
	if start == nil {
		start = new(stats.Cursor)
		c.winStart[w] = start
	}
	return c.Busy.WindowAverageCursor(now, w, start, &c.winEnd) / float64(c.totalNodes)
}

// OnCheckpoint samples the checkpoint series. bf/w are the scheduler's
// current tunables when it exposes them (hasTunables). Lean collectors
// sample nothing: the checkpoint series grow with simulated time, which
// a bounded-memory streaming run cannot afford (schedulers still read
// live utilization through UtilWindowAvg).
func (c *Collector) OnCheckpoint(now units.Time, queue []*job.Job, bf float64, w int, hasTunables bool) {
	if c.lean {
		return
	}
	c.QD.Append(now, QueueDepthMinutes(now, queue))
	c.UtilInstant.Append(now, c.Busy.AtCursor(now, &c.atCur)/float64(c.totalNodes))
	c.Util1H.Append(now, c.UtilWindowAvg(now, units.Hour))
	c.Util10H.Append(now, c.UtilWindowAvg(now, 10*units.Hour))
	c.Util24H.Append(now, c.UtilWindowAvg(now, 24*units.Hour))
	if hasTunables {
		c.BF.Append(now, bf)
		c.W.Append(now, float64(w))
	}
}

// slowdownTau is the bounded-slowdown threshold (Feitelson's
// convention: very short jobs do not inflate the metric).
const slowdownTau = 10 * units.Second

// AvgWaitMinutes is the mean waiting time across started jobs.
func (c *Collector) AvgWaitMinutes() float64 { return c.mean(c.waitSum) }

// AvgBSLD is the mean bounded slowdown ((wait+runtime)/max(runtime,
// 10s)) across started jobs — the headline BSLD number the tournament
// ranks policies by.
func (c *Collector) AvgBSLD() float64 { return c.mean(c.sdSum) }

// mean divides a per-job sum by the started count, 0 for none.
func (c *Collector) mean(sum float64) float64 {
	if c.started == 0 {
		return 0
	}
	return sum / float64(c.started)
}

// MaxBSLD is the largest bounded slowdown across started jobs.
func (c *Collector) MaxBSLD() float64 { return c.sdPeak }

// MaxWaitMinutes is the largest waiting time across started jobs.
func (c *Collector) MaxWaitMinutes() float64 { return c.waitPeak }

// UnfairCount is the number of jobs started after their fair start time.
func (c *Collector) UnfairCount() int { return c.unfair }

// FairKnownCount is the number of jobs with an oracle fair start.
func (c *Collector) FairKnownCount() int { return c.fairKnown }

// StartedCount is the number of jobs that started.
func (c *Collector) StartedCount() int { return c.started }

// FinishedCount is the number of jobs that completed within walltime.
func (c *Collector) FinishedCount() int { return c.finished }

// KilledCount is the number of jobs terminated at their walltime limit.
func (c *Collector) KilledCount() int { return c.killed }

// LoC is the loss of capacity of Eq. 4 over the run, in [0, 1]: the
// fraction of available node-time that sat idle while queued work would
// have fit.
func (c *Collector) LoC() float64 {
	span := c.lastEvent.Sub(c.firstEvent)
	if !c.haveStep || span <= 0 {
		return 0
	}
	return c.locNodeSec / (float64(c.totalNodes) * float64(span))
}

// UtilAvg is the mean busy fraction of the machine over the run. Lean
// mode integrates incrementally (the compacted series no longer spans
// the run).
func (c *Collector) UtilAvg() float64 {
	span := c.lastEvent.Sub(c.firstEvent)
	if span <= 0 {
		return 0
	}
	if c.lean {
		return c.busyInt / (float64(c.totalNodes) * float64(span))
	}
	return c.Busy.Integrate(c.firstEvent, c.lastEvent) / (float64(c.totalNodes) * float64(span))
}

// UsedAvg is like UtilAvg but counts only requested nodes (excluding
// internal fragmentation of partitions).
func (c *Collector) UsedAvg() float64 {
	span := c.lastEvent.Sub(c.firstEvent)
	if span <= 0 {
		return 0
	}
	if c.lean {
		return c.usedInt / (float64(c.totalNodes) * float64(span))
	}
	return c.Used.Integrate(c.firstEvent, c.lastEvent) / (float64(c.totalNodes) * float64(span))
}

// Span is the duration between the first and last scheduling events.
func (c *Collector) Span() units.Duration { return c.lastEvent.Sub(c.firstEvent) }
