package core

import (
	"amjs/internal/sched"
	"amjs/internal/whatif"
)

// WhatIf wraps a simulation-in-the-loop planner (internal/whatif) as a
// tuning scheme: at every checkpoint the Tuner hands the planner the
// incumbent (BF, W) pair and a candidate factory, the planner runs its
// lookahead rollouts, and the winning pair is applied jointly —
// bypassing the per-tunable ±Δ walk entirely. The scheme slots in next
// to the threshold schemes: NewTuner(WhatIf(p)) is the pure what-if
// tuner, NewTuner(PaperBFScheme(1000), WhatIf(p)) layers a shadow or
// active planner over the paper's queue-depth rule.
//
// The Target/Delta/Min/Max fields exist only to satisfy Scheme
// validation; the joint-proposal path never consults them.
func WhatIf(p *whatif.Planner) Scheme {
	cfg := p.Config()
	return Scheme{
		Target:  TunableBF,
		Initial: cfg.InitialBF,
		Delta:   1, Min: 0, Max: 1,
		Monitor: p,
	}
}

// jointProposer is the what-if planner's checkpoint hook: instead of a
// ±Δ direction it proposes a complete (BF, W) pair, built from
// lookahead rollouts over candidates the factory constructs. Checked
// structurally so core depends only on the method, not the package.
type jointProposer interface {
	Propose(env sched.Env, m sched.MetricsView, bf float64, w int,
		mk func(bf float64, w int) sched.Scheduler) (float64, int, bool)
}

// initialSetter lets a joint scheme seed both tunables at construction
// (a Scheme's Initial covers only its own Target).
type initialSetter interface {
	InitialTunables() (float64, int)
}

// candidate builds an independent scheduler configured with candidate
// tunables for what-if rollouts: a clone of the wrapped policy —
// reservation state preserved, scratch buffers fresh — with (BF, W)
// overridden. Each rollout runs a copy of its candidate inside a
// private engine fork.
func (t *Tuner) candidate(bf float64, w int) sched.Scheduler {
	c := t.base.Clone().(*MetricAware)
	c.BF = bf
	c.W = w
	return c
}

// WhatIfPlanner returns the hosted what-if planner, when one of the
// schemes carries one.
func (t *Tuner) WhatIfPlanner() (*whatif.Planner, bool) {
	for _, s := range t.schemes {
		if p, ok := s.Monitor.(*whatif.Planner); ok {
			return p, true
		}
	}
	return nil, false
}

// WhatIfStatus implements whatif.Reporter: a snapshot of the hosted
// planner's decisions and counters, when one exists.
func (t *Tuner) WhatIfStatus() (whatif.Status, bool) {
	if p, ok := t.WhatIfPlanner(); ok {
		return p.Status(), true
	}
	return whatif.Status{}, false
}
