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

// candidate builds a scheduler configured with candidate tunables for
// what-if rollouts: a copy of the wrapped policy — reservation state
// preserved — with (BF, W) overridden. The copy is rebuilt in place, in
// the slot the previous checkpoint's candidate of the same rank held,
// so a warm checkpoint allocates nothing; that is sound because the
// engine runs its own clone of each candidate inside a private fork and
// keeps none of them past Lookahead.
func (t *Tuner) candidate(bf float64, w int) sched.Scheduler {
	if t.ncand == len(t.cands) {
		t.cands = append(t.cands, nil)
	}
	c := t.base.CloneInto(t.cands[t.ncand]).(*MetricAware)
	t.cands[t.ncand] = c
	t.ncand++
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
