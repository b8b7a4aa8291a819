package sched

import (
	"time"

	"amjs/internal/units"
)

// Rollout is the aggregate outcome of one what-if lookahead rollout: a
// short-horizon closed-world simulation of the system's near future
// under one candidate policy configuration, forked from the live engine
// state. The what-if planner (internal/whatif) scores rollouts against
// each other; the fields are raw sums so every objective derives from
// the same run.
//
// Wait accounting covers exactly the jobs that were queued at the fork
// instant: a job that starts within the horizon contributes its full
// accrued wait (submit to start), one still queued at the horizon's end
// contributes its wait truncated there — so stranded jobs keep pressing
// on the objective instead of vanishing from it. Bounded slowdown uses
// the same population with the paper-standard 10-minute runtime floor;
// jobs that never start substitute their walltime for the unknown
// runtime. Utilization is the busy-node integral over the whole
// horizon, idle tail included.
type Rollout struct {
	// Valid reports whether the rollout ran to its horizon. A rollout
	// skipped by the real-time budget or aborted by an engine error is
	// invalid and must not be scored.
	Valid bool

	// Horizon is the simulated span the rollout covered.
	Horizon units.Duration

	// Started counts fork-queued jobs that began within the horizon;
	// LeftQueued counts those still waiting when it ended. Their sum is
	// the fork queue's population.
	Started    int
	LeftQueued int

	// Completed counts jobs — running at the fork or started during the
	// rollout — that finished within the horizon.
	Completed int

	// WaitSum is the summed wait of the fork-queued population, each
	// job's wait truncated at the horizon end if it never started.
	WaitSum units.Duration

	// BSLDSum is the summed bounded slowdown of the same population.
	BSLDSum float64

	// UtilNodeSec is the busy-node integral (node-seconds) over the
	// horizon; TotalNodes scales it to a fraction.
	UtilNodeSec float64
	TotalNodes  int

	// Passes counts the scheduling passes the rollout executed itself,
	// and Shared reports that it reused at least one pass of the
	// incumbent's rollout (candidate zero) instead: the environment ran
	// the candidates' common untuned prefix once (see
	// PassReport.Untuned). Both are accounting, not outcome — a shared
	// rollout's other fields are bit-identical to an unshared one's.
	Passes int
	Shared bool
}

// AvgWaitMinutes is the mean wait of the fork-queued population, in
// minutes; zero when the fork queue was empty.
func (r Rollout) AvgWaitMinutes() float64 {
	n := r.Started + r.LeftQueued
	if n == 0 {
		return 0
	}
	return float64(r.WaitSum) / float64(units.Minute) / float64(n)
}

// AvgBSLD is the mean bounded slowdown of the fork-queued population;
// zero when the fork queue was empty.
func (r Rollout) AvgBSLD() float64 {
	n := r.Started + r.LeftQueued
	if n == 0 {
		return 0
	}
	return r.BSLDSum / float64(n)
}

// Utilization is the busy fraction of the machine over the horizon.
func (r Rollout) Utilization() float64 {
	denom := float64(r.TotalNodes) * float64(r.Horizon)
	if denom == 0 {
		return 0
	}
	return r.UtilNodeSec / denom
}

// Lookaheader is an optional Env capability: an environment that can
// fork its current state and simulate the next horizon of virtual time
// under each candidate scheduler, returning one Rollout per candidate
// in input order. The simulation engine implements it; the what-if
// planner consumes it at checkpoints.
//
// The candidates must differ from the first only in their tunables:
// the environment may run once, for all of them, the prefix of passes
// the first candidate reports Untuned. Each rollout runs a copy of its
// candidate inside its own fork, and the environment keeps no candidate
// past the call, so the caller may rebuild them in place for the next
// one. The forks are closed worlds — no arrivals beyond those already
// queued — and must leave the environment's observable state
// untouched. workers bounds the fan-out (<= 1 runs serially); budget,
// when positive, is a wall-clock cap after which remaining candidates
// are skipped and returned invalid — except the first candidate, which
// always runs, so a caller that puts the incumbent configuration first
// always has a baseline to compare against. ok is false when the
// environment cannot fork (a nested simulation, an empty candidate
// list, a non-positive horizon).
type Lookaheader interface {
	Lookahead(cands []Scheduler, horizon units.Duration, workers int, budget time.Duration) ([]Rollout, bool)
}
