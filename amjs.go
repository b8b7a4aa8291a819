// Package amjs is the public API of the AMJS library — a from-scratch
// reproduction of "Adaptive Metric-Aware Job Scheduling for Production
// Supercomputers" (Tang, Ren, Lan, Desai; ICPP 2012).
//
// It bundles an event-driven scheduling simulator, machine models (a
// flat node pool and a Blue Gene/P-style partitioned machine), a
// synthetic workload generator plus an SWF trace reader, the classic
// baseline policies (FCFS/SJF/LJF, EASY and conservative backfilling, a
// utility-function policy, dynP), and the paper's contribution:
// metric-aware windowed scheduling with adaptive policy tuning.
//
// A minimal session:
//
//	cfg := amjs.MiniWorkload(42)
//	jobs, _ := cfg.Generate()
//	res, _ := amjs.Run(amjs.SimConfig{
//		Machine:   amjs.NewPartitionMachine(8, 64),
//		Scheduler: amjs.NewMetricAware(0.5, 4),
//	}, jobs)
//	fmt.Println(res.Metrics.AvgWaitMinutes())
//
// See the examples directory for complete programs and DESIGN.md for
// the system inventory.
package amjs

import (
	"io"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/metrics"
	"amjs/internal/predict"
	"amjs/internal/sched"
	"amjs/internal/sim"
	"amjs/internal/units"
	"amjs/internal/whatif"
	"amjs/internal/workload"
)

// Time and duration types of the simulation clock (integer seconds).
type (
	// Time is an absolute simulated instant, in seconds from the trace
	// epoch.
	Time = units.Time
	// Duration is a simulated time span in seconds.
	Duration = units.Duration
)

// Common durations.
const (
	Second = units.Second
	Minute = units.Minute
	Hour   = units.Hour
	Day    = units.Day
)

// Job is a batch job: identity and request fields are workload input,
// Start/End/State are written by the simulator.
type Job = job.Job

// Machine is a compute resource a scheduler allocates jobs onto.
type Machine = machine.Machine

// NewFlatMachine returns a malleable pool of n nodes (no placement
// constraints, hence no external fragmentation).
func NewFlatMachine(n int) Machine { return machine.NewFlat(n) }

// NewPartitionMachine returns a Blue Gene/P-style machine of
// midplanes×perMidplane nodes with contiguous aligned power-of-two
// partition allocation — the model on which fragmentation and loss of
// capacity arise.
func NewPartitionMachine(midplanes, perMidplane int) Machine {
	return machine.NewPartition(midplanes, perMidplane)
}

// NewIntrepidMachine returns the paper's evaluation platform: the
// 40,960-node Intrepid Blue Gene/P (80 midplanes × 512 nodes).
func NewIntrepidMachine() Machine { return machine.NewIntrepid() }

// NewTorusMachine returns a torus-connected machine of x×y×z midplanes
// with perMidplane nodes each; jobs run in rectangular cuboids, the
// richer 3-D fragmentation model of Blue Gene-class systems.
func NewTorusMachine(x, y, z, perMidplane int) Machine {
	return machine.NewTorus(x, y, z, perMidplane)
}

// NewIntrepidTorusMachine returns Intrepid modelled as a 5×4×4 midplane
// torus (40,960 nodes).
func NewIntrepidTorusMachine() Machine { return machine.NewIntrepidTorus() }

// Scheduler decides which queued jobs start as simulated time advances.
type Scheduler = sched.Scheduler

// Baseline schedulers.
var (
	// NewFCFS is strict first-come-first-served (no backfilling).
	NewFCFS = func() Scheduler { return sched.NewFCFS() }
	// NewSJF is strict shortest-job-first.
	NewSJF = func() Scheduler { return sched.NewSJF() }
	// NewLJF is strict longest-job-first.
	NewLJF = func() Scheduler { return sched.NewLJF() }
	// NewEASY is FCFS with EASY backfilling — the production default the
	// paper compares against.
	NewEASY = func() Scheduler { return sched.NewEASY() }
	// NewConservative is FCFS with conservative backfilling.
	NewConservative = func() Scheduler { return sched.NewConservative() }
	// NewWFP is the Cobalt-style utility-function policy.
	NewWFP = func() Scheduler { return sched.NewWFP() }
	// NewDynP is the dynP-style self-tuning policy switcher.
	NewDynP = func() Scheduler { return sched.NewDynP() }
)

// NewRelaxed returns relaxed backfilling (Ward et al.): backfill jobs
// may delay the protected reservation by at most slack in total.
func NewRelaxed(slack Duration) Scheduler { return sched.NewRelaxed(slack) }

// NewFairShare returns the fair-share policy: user priority decays with
// recent usage (exponential half-life), with EASY backfilling.
func NewFairShare(halfLife Duration) Scheduler { return sched.NewFairShare(halfLife) }

// WalltimePredictor learns per-user walltime accuracy (the companion
// IPDPS 2010 adjustment this paper builds on).
type WalltimePredictor = predict.Predictor

// NewWalltimePredictor returns a predictor with the given per-user
// history window and safety inflation factor.
func NewWalltimePredictor(window int, safety float64) *WalltimePredictor {
	return predict.New(window, safety)
}

// AdjustWalltimes applies a predictor to a trace offline, tightening
// walltime requests from each user's history (never below the runtime).
func AdjustWalltimes(jobs []*Job, p *WalltimePredictor) []*Job {
	return predict.AdjustTrace(jobs, p)
}

// MetricAware is the paper's metric-aware scheduler: balanced priority
// scoring (balance factor BF) plus window-based allocation (window W).
type MetricAware = core.MetricAware

// NewMetricAware returns a metric-aware scheduler. BF in [0,1]
// balances fairness (1, FCFS-like) against efficiency (0, SJF-like); W
// >= 1 is the allocation window size. BF=1, W=1 is exactly FCFS+EASY.
func NewMetricAware(bf float64, w int) *MetricAware { return core.NewMetricAware(bf, w) }

// Tuner wraps a metric-aware scheduler with the paper's adaptive
// policy tuning (Algorithm 1).
type Tuner = core.Tuner

// Scheme is one adaptive tuning rule <T, T_i, Δ, M, Th, E_p, E_m>.
type Scheme = core.Scheme

// NewTuner builds an adaptive scheduler from tuning schemes; pass both
// paper schemes for two-dimensional tuning.
func NewTuner(schemes ...Scheme) *Tuner { return core.NewTuner(schemes...) }

// BFScheme is the paper's balance-factor rule: queue depth at or above
// the threshold (minutes) drops BF to 0.5; below it BF returns to 1.
func BFScheme(thresholdMinutes float64) Scheme { return core.PaperBFScheme(thresholdMinutes) }

// WScheme is the paper's window rule: when 10-hour average utilization
// falls below the 24-hour average, W grows to 4; otherwise back to 1.
func WScheme() Scheme { return core.PaperWScheme() }

// WhatIfConfig parameterizes the simulation-in-the-loop tuner: the
// lookahead horizon, scoring objective, (BF, W) candidate grid,
// wall-clock budget, and shadow (observe-only) mode. The zero value
// uses the documented defaults.
type WhatIfConfig = whatif.Config

// WhatIfPlanner forks the engine state at every adaptive checkpoint,
// simulates the candidate grid over a short horizon, and commits the
// best-scoring (BF, W) pair — lookahead-driven tuning in place of the
// paper's threshold rules.
type WhatIfPlanner = whatif.Planner

// WhatIfDecision is one checkpoint's recorded what-if outcome.
type WhatIfDecision = whatif.Decision

// WhatIfStatus snapshots a planner: counters, latency histogram, and
// the decision log (Result.WhatIf after a run).
type WhatIfStatus = whatif.Status

// What-if rollout objectives (lower scores win).
const (
	// WhatIfAvgWait minimizes the queued population's mean accrued wait.
	WhatIfAvgWait = whatif.AvgWait
	// WhatIfBSLD minimizes mean bounded slowdown.
	WhatIfBSLD = whatif.BSLD
	// WhatIfUtilization maximizes busy-node fraction over the horizon.
	WhatIfUtilization = whatif.Utilization
	// WhatIfBlend is the fairness-weighted composite objective.
	WhatIfBlend = whatif.Blend
)

// NewWhatIfPlanner builds a planner from the config.
func NewWhatIfPlanner(cfg WhatIfConfig) *WhatIfPlanner { return whatif.NewPlanner(cfg) }

// WhatIfScheme wraps a planner as a tuning scheme:
// NewTuner(WhatIfScheme(NewWhatIfPlanner(cfg))) schedules with
// simulation-in-the-loop (BF, W) adaptation.
func WhatIfScheme(p *WhatIfPlanner) Scheme { return core.WhatIf(p) }

// Scorer weights one normalized job feature (wait, short, large, small
// or lowcost) in a multi-metric priority — the generalization of Eq. 3
// the paper's future work calls for.
type Scorer = core.Scorer

// Built-in scorers for NewMultiMetric.
var (
	// WaitScorer favours long-waiting jobs (fairness; Eq. 1).
	WaitScorer = core.WaitScorer
	// ShortJobScorer favours short walltimes (turnaround; Eq. 2).
	ShortJobScorer = core.ShortJobScorer
	// LargeJobScorer favours capability-class jobs.
	LargeJobScorer = core.LargeJobScorer
	// SmallJobScorer favours hole-filling small jobs.
	SmallJobScorer = core.SmallJobScorer
	// LowCostScorer favours jobs about to consume the least node-time —
	// a system-cost (energy-proxy) metric.
	LowCostScorer = core.LowCostScorer
)

// NewMultiMetric builds a metric-aware scheduler over an arbitrary
// weighted set of normalized metrics, with the same window machinery.
// NewMultiMetric(w, WaitScorer(bf), ShortJobScorer(1-bf)) reproduces
// NewMetricAware(bf, w).
func NewMultiMetric(w int, scorers ...Scorer) *MetricAware {
	return core.NewMultiMetric(w, scorers...)
}

// SimConfig configures a simulation run.
type SimConfig = sim.Config

// Result is a completed simulation: per-job outcomes plus metrics.
type Result = sim.Result

// Metrics is a run's metric collector (Result.Metrics): waiting times,
// queue-depth and utilization series, fairness counts, loss of
// capacity.
type Metrics = metrics.Collector

// ClassStat is one row of a per-class wait breakdown.
type ClassStat = metrics.ClassStat

// Breakdown helpers over a Result's completed jobs.
var (
	// WaitBySize summarizes waits by node request relative to the machine.
	WaitBySize = metrics.WaitBySize
	// WaitByRuntime summarizes waits by actual runtime class.
	WaitByRuntime = metrics.WaitByRuntime
	// WaitByUser summarizes waits for the heaviest-submitting users.
	WaitByUser = metrics.WaitByUser
	// FormatBreakdown renders a breakdown as fixed-width text.
	FormatBreakdown = metrics.FormatBreakdown
)

// Run simulates the workload under the configuration.
func Run(cfg SimConfig, jobs []*Job) (*Result, error) { return sim.Run(cfg, jobs) }

// TraceSource delivers a trace one job at a time in nondecreasing
// submit order (io.EOF at the end). Sources come from NewSWFSource,
// WorkloadConfig.Stream, or SliceSource.
type TraceSource = workload.Source

// SliceSource adapts a materialized, submit-ordered trace to TraceSource.
func SliceSource(jobs []*Job) TraceSource { return workload.SliceSource(jobs) }

// CollectTrace drains a source into a slice.
func CollectTrace(src TraceSource) ([]*Job, error) { return workload.Collect(src) }

// RunStream simulates a streamed workload: identical schedules to Run,
// O(live jobs) memory when a completion sink is supplied. See
// sim.RunStream.
func RunStream(cfg SimConfig, src TraceSource, sink func(*Job)) (*Result, error) {
	return sim.RunStream(cfg, src, sink)
}

// WorkloadConfig specifies a synthetic workload.
type WorkloadConfig = workload.Config

// IntrepidWorkload is the month-long Intrepid-like synthetic workload
// the experiments run on (the stand-in for the paper's proprietary
// trace; see DESIGN.md §3).
func IntrepidWorkload(seed int64) WorkloadConfig { return workload.Intrepid(seed) }

// IntrepidHeavyWorkload is a heavier, burstier variant.
func IntrepidHeavyWorkload(seed int64) WorkloadConfig { return workload.IntrepidHeavy(seed) }

// MiniWorkload is a small 512-node workload for quick runs and tests.
func MiniWorkload(seed int64) WorkloadConfig { return workload.Mini(seed) }

// ReadSWF parses a Standard Workload Format trace.
func ReadSWF(r io.Reader, opt SWFOptions) (jobs []*Job, skipped int, err error) {
	return workload.ReadSWF(r, opt)
}

// WriteSWF renders jobs as an SWF trace.
func WriteSWF(w io.Writer, jobs []*Job, header string) error {
	return workload.WriteSWF(w, jobs, header)
}

// NewSWFSource streams an SWF trace without materializing it; records
// out of submit order by less than slack (0 = a default hour) are
// re-sorted in a bounded buffer. Pair with RunStream for year-long
// replays in constant memory.
func NewSWFSource(r io.Reader, opt SWFOptions, slack Duration) TraceSource {
	return workload.NewSWFSource(r, opt, slack)
}

// SWFOptions control SWF parsing.
type SWFOptions = workload.SWFOptions

// SampleSWF is a small embedded SWF trace for experimentation.
const SampleSWF = workload.SampleSWF

// AnalyzeWorkload summarizes a trace against a machine size.
func AnalyzeWorkload(jobs []*Job, machineNodes int) workload.TraceStats {
	return workload.Analyze(jobs, machineNodes)
}
