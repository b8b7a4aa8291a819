package sched

import (
	"math"

	"amjs/internal/job"
	"amjs/internal/units"
)

// FairShare is the classic production fair-share policy: users'
// priorities decay with their recent resource consumption, so light
// users jump ahead of heavy ones. Consumption is tracked as node-
// seconds with exponential half-life decay, the scheme used by
// Maui/Moab-class schedulers (§II discusses their weighted-priority
// approach). Jobs run with EASY backfilling over the fair-share order.
//
// The charge is clairvoyant: a start is charged its NodeSeconds, the
// nodes times the job's actual Runtime, at the instant it starts, so
// the ledger reads how long the job will really run before it has run.
// A production scheduler knows only the walltime request then, and
// charges usage as it accrues.
//
// FairShare is stateful across scheduling passes; Clone carries the
// usage ledger, so nested fairness simulations see the current shares.
type FairShare struct {
	// HalfLife is the decay half-life of recorded usage.
	HalfLife units.Duration

	usage    map[string]float64 // decayed node-seconds per user
	lastTick units.Time
}

// NewFairShare returns a fair-share scheduler with the given usage
// half-life (panics if non-positive — a configuration error).
func NewFairShare(halfLife units.Duration) *FairShare {
	if halfLife <= 0 {
		panic("sched: fair-share half-life must be positive")
	}
	return &FairShare{HalfLife: halfLife, usage: make(map[string]float64)}
}

// Name implements Scheduler.
func (f *FairShare) Name() string { return "fairshare" }

// Clone implements Scheduler.
func (f *FairShare) Clone() Scheduler {
	c := &FairShare{HalfLife: f.HalfLife, lastTick: f.lastTick,
		usage: make(map[string]float64, len(f.usage))}
	for k, v := range f.usage {
		c.usage[k] = v
	}
	return c
}

// Usage returns the user's current decayed usage (for tests and
// inspection).
func (f *FairShare) Usage(user string) float64 { return f.usage[user] }

// decayTo ages the ledger to the given instant.
func (f *FairShare) decayTo(now units.Time) {
	if now <= f.lastTick {
		return
	}
	factor := math.Exp2(-float64(now-f.lastTick) / float64(f.HalfLife))
	for u := range f.usage {
		f.usage[u] *= factor
		if f.usage[u] < 1e-6 {
			delete(f.usage, u)
		}
	}
	f.lastTick = now
}

// order sorts the queue by ascending owner usage (lightest user first),
// breaking ties by submission order.
func (f *FairShare) order(queue []*job.Job) []*job.Job {
	return byKey(queue, func(j *job.Job) float64 { return -f.usage[j.User] })
}

// Schedule implements Scheduler: EASY backfilling over fair-share
// order, charging each start to its owner.
func (f *FairShare) Schedule(env Env) {
	queue := env.Queue()
	if len(queue) == 0 {
		return
	}
	f.decayTo(env.Now())
	backfill(env, f.order(queue), 1, false, func(j *job.Job) {
		f.usage[j.User] += float64(j.NodeSeconds())
	})
}
