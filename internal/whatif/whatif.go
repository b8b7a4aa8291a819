// Package whatif is the simulation-in-the-loop tuning layer: instead
// of guessing the near future from threshold rules (queue depth,
// utilization stock-ticker), the planner forks the live engine state at
// every checkpoint, simulates the next few virtual hours under a
// candidate grid of (BF, W) settings via the engine's lookahead
// capability (sched.Lookaheader), scores each rollout on a configurable
// objective, and commits the winner as the next tunables.
//
// The planner plugs into core.Tuner as a scheme monitor (core.WhatIf):
// the tuner recognises a *Planner at checkpoints, calls Propose and
// applies the returned pair directly, bypassing the ±Δ walk. In batch
// simulations the lookahead horizon is free — virtual time costs only
// CPU — while a live daemon caps each tick with a wall-clock budget.
package whatif

import (
	"fmt"
	"time"

	"amjs/internal/sched"
	"amjs/internal/units"
)

// Objective selects what a rollout is scored on. Lower scores win.
type Objective int

const (
	// AvgWait minimizes the mean accrued wait of the queued population.
	AvgWait Objective = iota
	// BSLD minimizes the mean bounded slowdown (10-minute floor).
	BSLD
	// Utilization maximizes the busy-node fraction over the horizon.
	Utilization
	// Blend is the fairness-weighted composite: the wait term (accrued
	// waits are the paper's queue-depth fairness pressure — stranded
	// jobs keep accruing) normalized by the horizon, plus a squashed
	// slowdown term and the idle fraction. Weights 0.5 / 0.3 / 0.2.
	Blend
)

// String returns the objective's spec name.
func (o Objective) String() string {
	switch o {
	case AvgWait:
		return "avg-wait"
	case BSLD:
		return "bsld"
	case Utilization:
		return "util"
	case Blend:
		return "blend"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// ParseObjective parses an objective spec name.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "avg-wait", "wait":
		return AvgWait, nil
	case "bsld", "slowdown":
		return BSLD, nil
	case "util", "utilization":
		return Utilization, nil
	case "blend":
		return Blend, nil
	default:
		return 0, fmt.Errorf("whatif: unknown objective %q (want avg-wait, bsld, util, or blend)", s)
	}
}

// Score reduces a rollout to the objective's scalar; lower is better.
func Score(o Objective, r sched.Rollout) float64 {
	switch o {
	case AvgWait:
		return r.AvgWaitMinutes()
	case BSLD:
		return r.AvgBSLD()
	case Utilization:
		return -r.Utilization()
	case Blend:
		horizonMin := float64(r.Horizon) / float64(units.Minute)
		waitNorm := 0.0
		if horizonMin > 0 {
			waitNorm = r.AvgWaitMinutes() / horizonMin
		}
		b := r.AvgBSLD()
		return 0.5*waitNorm + 0.3*b/(1+b) + 0.2*(1-r.Utilization())
	default:
		return r.AvgWaitMinutes()
	}
}

// Config parameterizes a Planner. The zero value is usable: every
// field defaults as documented.
type Config struct {
	// Horizon is the virtual span each rollout simulates. Default 2h —
	// long enough to cover several scheduling passes, short enough that
	// a tick costs a small fraction of the simulated interval.
	Horizon units.Duration

	// Objective scores the rollouts. Default AvgWait.
	Objective Objective

	// BFGrid and WGrid span the candidate settings; the cross product
	// (plus the incumbent pair) is evaluated each tick. Defaults
	// {0.5, 0.75, 1} × {1, 2, 4}.
	BFGrid []float64
	WGrid  []int

	// Workers bounds the fan-out of a tick's rollouts, which follows
	// the incumbent's untuned prefix (run alone; see
	// sched.PassReport.Untuned). 0 and 1 both run them serially: a tick
	// is about nine rollouts of some 30 µs each, and one worker per CPU
	// measured 1.19x the jobs/s of the what-if benchmark for +24 % CPU
	// and +14 % allocation per job (2 vCPU, 4 interleaved pairs).
	// Results are deterministic at any worker count when Budget is zero.
	Workers int

	// Budget, when positive, caps each tick's wall-clock spend:
	// candidates not yet started when it expires are skipped (the
	// incumbent always runs). Zero — the batch-simulation default —
	// evaluates every candidate, keeping decisions fully deterministic.
	Budget time.Duration

	// MinGain is the relative score improvement over the incumbent
	// required to switch settings (hysteresis against flapping).
	// Default 0: any strict improvement commits.
	MinGain float64

	// Observe runs the planner in shadow mode: rollouts are evaluated
	// and logged but nothing is ever committed. The no-leak
	// differential suite runs a shadow planner alongside the threshold
	// schemes and pins the schedule byte-identical.
	Observe bool

	// LogCap bounds the retained decision log (a ring, oldest dropped).
	// Default 32.
	LogCap int

	// InitialBF and InitialW seed the wrapped policy's tunables before
	// the first checkpoint. Defaults 1 and 1 (the paper's starting
	// point for both adaptive schemes).
	InitialBF float64
	InitialW  int
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 2 * units.Hour
	}
	if len(c.BFGrid) == 0 {
		c.BFGrid = []float64{0.5, 0.75, 1}
	}
	if len(c.WGrid) == 0 {
		c.WGrid = []int{1, 2, 4}
	}
	if c.LogCap <= 0 {
		c.LogCap = 32
	}
	if c.InitialBF == 0 {
		c.InitialBF = 1
	}
	if c.InitialW == 0 {
		c.InitialW = 1
	}
	return c
}

// Decision records one checkpoint's what-if outcome: the incumbent and
// chosen (BF, W) pairs, their scores under the configured objective,
// the candidate census, and the tick's wall cost. Committed reports
// whether the chosen pair was actually applied (false for ties kept by
// hysteresis and always false in Observe mode). WallNS is machine
// timing and is excluded from cross-engine decision-log comparisons.
type Decision struct {
	At         units.Time `json:"at"`
	PrevBF     float64    `json:"prev_bf"`
	PrevW      int        `json:"prev_w"`
	BF         float64    `json:"bf"`
	W          int        `json:"w"`
	PrevScore  float64    `json:"prev_score"`
	Score      float64    `json:"score"`
	Candidates int        `json:"candidates"`
	Evaluated  int        `json:"evaluated"`
	Committed  bool       `json:"committed"`
	WallNS     int64      `json:"wall_ns"`
}

// latBounds are the rollout-latency histogram bucket upper bounds, in
// seconds (a +Inf bucket is implicit).
var latBounds = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5}

// HistBucket is one cumulative latency bucket (le in seconds).
type HistBucket struct {
	LE float64 `json:"le"`
	N  uint64  `json:"n"`
}

// Status is a point-in-time snapshot of a planner's activity, shaped
// for the daemon's /v1/tuner endpoint and the Prometheus exposition.
type Status struct {
	Objective  string  `json:"objective"`
	HorizonSec int64   `json:"horizon_sec"`
	BudgetNS   int64   `json:"budget_ns"`
	Observe    bool    `json:"observe"`
	Ticks      uint64  `json:"ticks"`
	Evaluated  uint64  `json:"candidates_evaluated"`
	Commits    uint64  `json:"commits"`
	Skipped    uint64  `json:"skipped"`
	LastDelta  float64 `json:"last_objective_delta"`

	// RolloutPasses counts the scheduling passes executed inside
	// rollouts; RolloutsShared counts the rollouts answered wholly or
	// partly from the incumbent's (see sched.Rollout.Shared). Both are
	// exact and deterministic when Budget is zero.
	RolloutPasses  uint64 `json:"rollout_passes"`
	RolloutsShared uint64 `json:"rollouts_shared"`

	LatCount   uint64       `json:"rollout_ticks"`
	LatSumSec  float64      `json:"rollout_seconds_sum"`
	LatBuckets []HistBucket `json:"rollout_seconds_buckets"`
	Decisions  []Decision   `json:"decisions"` // oldest first
}

// Reporter is implemented by schedulers that host a what-if planner
// and can snapshot its status (core.Tuner does).
type Reporter interface {
	WhatIfStatus() (Status, bool)
}

// pair is one candidate tunable setting.
type pair struct {
	bf float64
	w  int
}

// Planner evaluates the candidate grid at every checkpoint and decides
// the next tunables. It implements core.Monitor, so core.WhatIf slots
// it into a Tuner scheme; the Tuner recognises the *Planner by type and
// calls Propose at each checkpoint instead of Direction. A Planner
// instance belongs to one scheduler clone; core.Tuner deep-copies it on
// Clone (CloneMonitor), so forks accrue their own counters and the live
// engine's log is never written concurrently.
type Planner struct {
	cfg Config

	// Per-tick scratch, reused so a steady cadence allocates nothing.
	pairs []pair
	cands []sched.Scheduler

	ticks     uint64
	evals     uint64
	commits   uint64
	skips     uint64
	passes    uint64
	shared    uint64
	lastDelta float64

	decisions []Decision // ring of cfg.LogCap, oldest at dhead
	dhead     int

	latCount   uint64
	latSum     time.Duration
	latBuckets [len(latBounds) + 1]uint64
}

// NewPlanner builds a planner from the config (zero value = defaults).
func NewPlanner(cfg Config) *Planner {
	return &Planner{cfg: cfg.withDefaults()}
}

// Config returns the resolved configuration.
func (p *Planner) Config() Config { return p.cfg }

// SetBudget caps each tick's wall-clock spend after construction (the
// daemon applies its -whatif-budget flag to an already-parsed policy).
func (p *Planner) SetBudget(d time.Duration) { p.cfg.Budget = d }

// SetObserve toggles shadow mode after construction.
func (p *Planner) SetObserve(on bool) { p.cfg.Observe = on }

// SetWorkers rebounds the rollout fan-out after construction (0 and 1
// run serially; see Config.Workers).
func (p *Planner) SetWorkers(n int) { p.cfg.Workers = n }

// Describe implements core.Monitor.
func (p *Planner) Describe() string {
	return fmt.Sprintf("whatif(%s,horizon=%dm,grid=%dx%d)",
		p.cfg.Objective, p.cfg.Horizon/units.Minute, len(p.cfg.BFGrid), len(p.cfg.WGrid))
}

// Direction implements core.Monitor. The tuner's joint-proposal path
// supersedes it; it exists only to satisfy the interface and never
// fires a ±Δ walk.
func (p *Planner) Direction(sched.Env, sched.MetricsView) int { return 0 }

// CloneMonitor is core.Tuner's deep copy of the planner: a fresh
// planner with the same configuration and no accrued state. Nested
// engine forks (the fairness oracle, pass-defer snapshots) never fire
// checkpoints, so their planners stay inert; the deep copy exists so no
// fork can ever write this planner's counters or log.
func (p *Planner) CloneMonitor() *Planner { return NewPlanner(p.cfg) }

// Propose is the tuner's joint-proposal hook (see core.Tuner): called
// at each checkpoint with the incumbent pair and a factory that builds
// an independent candidate scheduler at given tunables. It returns the
// pair to apply and whether to apply it.
//
// The incumbent is always candidate zero, so the engine's budget rule
// (the first candidate always runs) guarantees a baseline, and strict
// less-than scoring makes ties keep the incumbent. An environment
// without lookahead, an empty queue (nothing to repack — every rollout
// would tie), or a tick with no valid rollout all skip: the incumbent
// stays, and the skip is counted.
func (p *Planner) Propose(env sched.Env, _ sched.MetricsView, bf float64, w int,
	mk func(bf float64, w int) sched.Scheduler) (float64, int, bool) {
	p.ticks++
	la, ok := env.(sched.Lookaheader)
	if !ok {
		p.skips++
		return bf, w, false
	}
	if len(env.Queue()) == 0 {
		p.skips++
		return bf, w, false
	}

	start := time.Now()
	p.pairs = p.pairs[:0]
	p.pairs = append(p.pairs, pair{bf, w})
	for _, cb := range p.cfg.BFGrid {
		for _, cw := range p.cfg.WGrid {
			if cb == bf && cw == w {
				continue
			}
			p.pairs = append(p.pairs, pair{cb, cw})
		}
	}
	p.cands = p.cands[:0]
	for _, pr := range p.pairs {
		p.cands = append(p.cands, mk(pr.bf, pr.w))
	}

	rollouts, ok := la.Lookahead(p.cands, p.cfg.Horizon, p.cfg.Workers, p.cfg.Budget)
	if !ok {
		p.skips++
		return bf, w, false
	}

	best := -1
	var bestScore, incScore float64
	incValid := false
	valid := 0
	for i, r := range rollouts {
		p.passes += uint64(r.Passes)
		if r.Shared {
			p.shared++
		}
		if !r.Valid {
			continue
		}
		valid++
		s := Score(p.cfg.Objective, r)
		if i == 0 {
			incScore, incValid = s, true
		}
		if best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	p.evals += uint64(valid)
	p.observeLatency(time.Since(start))
	if best < 0 {
		p.skips++
		return bf, w, false
	}

	chosen := p.pairs[best]
	commit := best != 0
	if commit && incValid {
		gain := incScore - bestScore
		if gain <= p.cfg.MinGain*abs(incScore) {
			commit = false
			chosen = p.pairs[0]
		}
	}
	if incValid {
		p.lastDelta = incScore - bestScore
	}
	if p.cfg.Observe {
		commit = false
	}
	p.pushDecision(Decision{
		At:     env.Now(),
		PrevBF: bf, PrevW: w,
		BF: chosen.bf, W: chosen.w,
		PrevScore: incScore, Score: bestScore,
		Candidates: len(p.pairs), Evaluated: valid,
		Committed: commit,
		WallNS:    time.Since(start).Nanoseconds(),
	})
	if !commit {
		return bf, w, false
	}
	p.commits++
	return chosen.bf, chosen.w, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (p *Planner) observeLatency(d time.Duration) {
	p.latCount++
	p.latSum += d
	sec := d.Seconds()
	for i, le := range latBounds {
		if sec <= le {
			p.latBuckets[i]++
			return
		}
	}
	p.latBuckets[len(latBounds)]++
}

func (p *Planner) pushDecision(d Decision) {
	if len(p.decisions) < p.cfg.LogCap {
		p.decisions = append(p.decisions, d)
		return
	}
	p.decisions[p.dhead] = d
	p.dhead = (p.dhead + 1) % len(p.decisions)
}

// Decisions returns the retained decision log, oldest first, as a
// fresh slice.
func (p *Planner) Decisions() []Decision {
	out := make([]Decision, 0, len(p.decisions))
	out = append(out, p.decisions[p.dhead:]...)
	out = append(out, p.decisions[:p.dhead]...)
	return out
}

// Status snapshots the planner for reporting. The caller must hold
// whatever lock serializes the hosting engine (the daemon's session
// mutex); the planner itself is single-threaded within one engine.
func (p *Planner) Status() Status {
	st := Status{
		Objective:  p.cfg.Objective.String(),
		HorizonSec: int64(p.cfg.Horizon),
		BudgetNS:   p.cfg.Budget.Nanoseconds(),
		Observe:    p.cfg.Observe,
		Ticks:      p.ticks,
		Evaluated:  p.evals,
		Commits:    p.commits,
		Skipped:    p.skips,
		LastDelta:  p.lastDelta,

		RolloutPasses:  p.passes,
		RolloutsShared: p.shared,
		LatCount:       p.latCount,
		LatSumSec:      p.latSum.Seconds(),
		Decisions:      p.Decisions(),
	}
	cum := uint64(0)
	for i, le := range latBounds {
		cum += p.latBuckets[i]
		st.LatBuckets = append(st.LatBuckets, HistBucket{LE: le, N: cum})
	}
	cum += p.latBuckets[len(latBounds)]
	st.LatBuckets = append(st.LatBuckets, HistBucket{LE: -1, N: cum}) // -1 renders as +Inf
	return st
}
