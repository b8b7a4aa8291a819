package core

import (
	"fmt"
	"strings"

	"amjs/internal/invariant"
	"amjs/internal/sched"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// Tunable identifies a scheduling-policy parameter the adaptive
// mechanism may adjust — the paper's T.
type Tunable int

// The two tunables of §III-C.
const (
	TunableBF Tunable = iota // balance factor
	TunableW                 // allocation window size
)

// String returns the tunable's name.
func (t Tunable) String() string {
	switch t {
	case TunableBF:
		return "BF"
	case TunableW:
		return "W"
	default:
		return fmt.Sprintf("tunable(%d)", int(t))
	}
}

// Monitor evaluates a monitored metric M against its trigger conditions
// and reports which tuning event fired: +1 for E_p (apply +Δ), -1 for
// E_m (apply -Δ), 0 for neither.
//
// A monitor carries no mutable state, like the two value-type threshold
// monitors below: Tuner.Clone copies it into every engine fork as is.
// The what-if planner is the one stateful monitor, and the Tuner
// recognises it by type, deep-copying it on Clone and asking it for a
// joint (BF, W) proposal instead of a direction.
type Monitor interface {
	Direction(env sched.Env, m sched.MetricsView) int
	Describe() string
}

// QueueDepthMonitor watches the queue-depth metric (the sum of the
// waits accumulated by all queued jobs, in minutes). While the depth is
// at or above the threshold it fires E_m (the scheme lowers BF toward
// efficiency); below the threshold it fires E_p (back toward fairness).
// The threshold is chosen from historical statistics — the paper uses
// the trace's long-term average, 1000 minutes on its workload.
type QueueDepthMonitor struct {
	ThresholdMinutes float64
}

// Direction implements Monitor.
func (q QueueDepthMonitor) Direction(_ sched.Env, m sched.MetricsView) int {
	if m.QueueDepthMinutes() >= q.ThresholdMinutes {
		return -1
	}
	return +1
}

// Describe implements Monitor.
func (q QueueDepthMonitor) Describe() string {
	return fmt.Sprintf("queue-depth>=%.0fmin", q.ThresholdMinutes)
}

// UtilTrendMonitor watches the utilization trend, comparing a short
// rolling average against a long one — the paper's stock-ticker rule
// with 10-hour and 24-hour windows. When the short average dips below
// the long one, utilization is declining and the monitor fires E_p (the
// scheme enlarges the allocation window to repack the queue); otherwise
// it fires E_m (back to the base window).
type UtilTrendMonitor struct {
	Short, Long units.Duration
}

// Direction implements Monitor.
func (u UtilTrendMonitor) Direction(_ sched.Env, m sched.MetricsView) int {
	if m.UtilWindowAvg(u.Short) < m.UtilWindowAvg(u.Long) {
		return +1
	}
	return -1
}

// Describe implements Monitor.
func (u UtilTrendMonitor) Describe() string {
	return fmt.Sprintf("util(%dh)<util(%dh)", u.Short/units.Hour, u.Long/units.Hour)
}

// Scheme is one configured instance of the paper's adaptive tuple
// <T, T_i, Δ, M, Th, E_p, E_m, C_i> (Table I). The monitored metric M,
// its threshold Th, and the events E_p/E_m live in the Monitor; the
// checking interval C_i is owned by the simulation engine, which calls
// Checkpoint on that period.
type Scheme struct {
	Target   Tunable
	Initial  float64 // T_i
	Delta    float64 // Δ
	Min, Max float64 // clamp bounds of the tunable
	Monitor  Monitor
}

// PaperBFScheme is the balance-factor scheme of §IV-C1: monitor queue
// depth with the given threshold; deep queue → BF 0.5, shallow → BF 1.
func PaperBFScheme(thresholdMinutes float64) Scheme {
	return Scheme{
		Target:  TunableBF,
		Initial: 1, Delta: 0.5, Min: 0.5, Max: 1,
		Monitor: QueueDepthMonitor{ThresholdMinutes: thresholdMinutes},
	}
}

// FineBFScheme is a fine-grained variant of the balance-factor scheme:
// instead of toggling between 1 and 0.5, BF walks in steps of delta
// within [0.5, 1] as the queue depth crosses the threshold — the
// "fine-grained tuning" §II contrasts with dynP's coarse policy
// switching. With delta = 0.5 it degenerates to PaperBFScheme.
func FineBFScheme(thresholdMinutes, delta float64) Scheme {
	return Scheme{
		Target:  TunableBF,
		Initial: 1, Delta: delta, Min: 0.5, Max: 1,
		Monitor: QueueDepthMonitor{ThresholdMinutes: thresholdMinutes},
	}
}

// PaperWScheme is the window-size scheme of §IV-C2: when the 10-hour
// utilization average drops below the 24-hour average, the window grows
// from 1 to 4; otherwise it returns to 1.
func PaperWScheme() Scheme {
	return Scheme{
		Target:  TunableW,
		Initial: 1, Delta: 3, Min: 1, Max: 4,
		Monitor: UtilTrendMonitor{Short: 10 * units.Hour, Long: 24 * units.Hour},
	}
}

// Validate reports configuration errors in the scheme.
func (s Scheme) Validate() error {
	switch {
	case s.Monitor == nil:
		return fmt.Errorf("core: scheme for %v has no monitor", s.Target)
	case s.Delta <= 0:
		return fmt.Errorf("core: scheme for %v has non-positive delta", s.Target)
	case s.Min > s.Max:
		return fmt.Errorf("core: scheme for %v has min > max", s.Target)
	case s.Initial < s.Min || s.Initial > s.Max:
		return fmt.Errorf("core: scheme for %v has initial outside [min,max]", s.Target)
	case s.Target == TunableBF && (s.Min < 0 || s.Max > 1):
		return fmt.Errorf("core: BF scheme bounds outside [0,1]")
	case s.Target == TunableW && s.Min < 1:
		return fmt.Errorf("core: W scheme bound below 1")
	}
	return nil
}

// Tuner implements Algorithm 1: it wraps a MetricAware scheduler and, at
// every engine checkpoint (the checking interval C_i), evaluates each
// scheme's monitor and walks the corresponding tunable by ±Δ within its
// bounds. With one scheme it is the paper's BF-only or W-only adaptive
// policy; with both it is two-dimensional policy tuning (§IV-C3).
type Tuner struct {
	base    *MetricAware
	schemes []Scheme

	// cands are the what-if candidates of the last checkpoint, rebuilt
	// in place by the next one (see candidate); ncand counts the slots
	// the current checkpoint has handed out. Clones never share them.
	cands []*MetricAware
	ncand int
}

// NewTuner builds an adaptive scheduler from the schemes. The wrapped
// policy starts at each scheme's Initial value. It panics on an invalid
// scheme (a configuration error).
func NewTuner(schemes ...Scheme) *Tuner {
	if len(schemes) == 0 {
		panic("core: tuner needs at least one scheme")
	}
	base := NewMetricAware(1, 1)
	for _, s := range schemes {
		if err := s.Validate(); err != nil {
			panic(err.Error())
		}
		if p, ok := s.Monitor.(*whatif.Planner); ok {
			// A what-if scheme seeds both tunables at once.
			cfg := p.Config()
			base.BF, base.W = cfg.InitialBF, cfg.InitialW
			continue
		}
		applyTunable(base, s.Target, s.Initial)
	}
	return &Tuner{base: base, schemes: schemes}
}

// Name implements sched.Scheduler.
func (t *Tuner) Name() string {
	parts := make([]string, len(t.schemes))
	for i, s := range t.schemes {
		if _, ok := s.Monitor.(*whatif.Planner); ok {
			parts[i] = "whatif"
		} else {
			parts[i] = s.Target.String()
		}
	}
	return fmt.Sprintf("adaptive(%s)", strings.Join(parts, "+"))
}

// Base exposes the wrapped metric-aware scheduler (for inspection).
func (t *Tuner) Base() *MetricAware { return t.base }

// Tunables reports the current policy parameters.
func (t *Tuner) Tunables() (bf float64, w int) { return t.base.Tunables() }

// Schedule implements sched.Scheduler.
func (t *Tuner) Schedule(env sched.Env) { t.base.Schedule(env) }

// Clone implements sched.Scheduler. The clone carries the current
// tuning state; in nested (fairness-oracle) simulations no checkpoints
// fire, so the policy stays frozen there, as DESIGN.md specifies.
//
// The schemes slice is copied, and the what-if planner, the one
// stateful monitor, is deep-copied with it, so no engine fork — a
// fairness-oracle world, a pass-defer snapshot, a second Live session
// built from the same Config — writes the original's counters or
// decision log. The wrapped policy is
// cloned through MetricAware.CloneInto, never copied by value: a value
// copy would share its scratch buffers with the original, which races
// once a fairness world runs the clone next to the main engine.
func (t *Tuner) Clone() sched.Scheduler { return t.CloneInto(nil) }

// CloneInto is Clone into a retired instance (see
// MetricAware.CloneInto): a *Tuner dst keeps its wrapped policy's
// scratch buffers, its schemes slice and its what-if candidates.
func (t *Tuner) CloneInto(dst sched.Scheduler) sched.Scheduler {
	d, ok := dst.(*Tuner)
	if !ok || d == nil || d == t {
		d = &Tuner{}
	}
	d.base = t.base.CloneInto(d.base).(*MetricAware)
	d.schemes = append(d.schemes[:0], t.schemes...)
	for i := range d.schemes {
		if p, ok := d.schemes[i].Monitor.(*whatif.Planner); ok {
			d.schemes[i].Monitor = p.CloneMonitor()
		}
	}
	return d
}

// LastPass implements sched.PassReporter by delegation: the pass
// outcome is the wrapped policy's, so its horizon and its quiescence
// promise apply verbatim (retunes happen at checkpoints, which dirty
// the engine and force the next pass regardless). The Tuner's own
// persistent state (the tunables) changes only at Checkpoint, never
// during a pass — and the engine resolves every deferred fairness batch
// before a retune can take effect — so a pass mutates state exactly
// when the wrapped policy's does.
func (t *Tuner) LastPass() sched.PassReport { return t.base.LastPass() }

// ProtectedReservation implements invariant.ReservationHolder by
// forwarding to the wrapped scheduler.
func (t *Tuner) ProtectedReservation() (jobID int, start units.Time, held bool) {
	return t.base.ProtectedReservation()
}

// TuningRules implements invariant.RuleSource: the schemes rendered in
// checker-replayable form. ok is false when a scheme uses a monitor the
// rule vocabulary cannot express, in which case the checker skips
// retune verification for the whole run.
func (t *Tuner) TuningRules() ([]invariant.TuningRule, bool) {
	rules := make([]invariant.TuningRule, 0, len(t.schemes))
	for _, s := range t.schemes {
		r := invariant.TuningRule{
			Target: s.Target.String(),
			Delta:  s.Delta, Min: s.Min, Max: s.Max,
		}
		switch m := s.Monitor.(type) {
		case QueueDepthMonitor:
			r.Kind = invariant.RuleQueueDepth
			r.ThresholdMinutes = m.ThresholdMinutes
		case UtilTrendMonitor:
			r.Kind = invariant.RuleUtilTrend
			r.Short, r.Long = m.Short, m.Long
		default:
			return nil, false
		}
		rules = append(rules, r)
	}
	return rules, true
}

// Checkpoint implements sched.Adaptive. Threshold schemes walk their
// tunable by ±Δ as Algorithm 1 specifies; a what-if scheme instead
// proposes a complete (BF, W) pair from lookahead rollouts over
// candidates t.candidate builds, applied atomically when the planner
// commits.
func (t *Tuner) Checkpoint(env sched.Env, m sched.MetricsView) {
	for _, s := range t.schemes {
		if p, ok := s.Monitor.(*whatif.Planner); ok {
			t.ncand = 0
			bf, w, commit := p.Propose(env, m, t.base.BF, t.base.W, t.candidate)
			if commit {
				t.base.BF = bf
				t.base.W = w
			}
			continue
		}
		dir := s.Monitor.Direction(env, m)
		if dir == 0 {
			continue
		}
		cur := readTunable(t.base, s.Target)
		next := cur + float64(dir)*s.Delta
		if next < s.Min {
			next = s.Min
		}
		if next > s.Max {
			next = s.Max
		}
		applyTunable(t.base, s.Target, next)
	}
}

func readTunable(b *MetricAware, t Tunable) float64 {
	switch t {
	case TunableBF:
		return b.BF
	case TunableW:
		return float64(b.W)
	default:
		panic(fmt.Sprintf("core: unknown tunable %v", t))
	}
}

func applyTunable(b *MetricAware, t Tunable, v float64) {
	switch t {
	case TunableBF:
		b.BF = v
	case TunableW:
		b.W = int(v + 0.5)
	default:
		panic(fmt.Sprintf("core: unknown tunable %v", t))
	}
}
