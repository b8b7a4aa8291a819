// Package invariant is the schedule-validity oracle: an independent,
// deliberately allocation-naive checker that replays a completed
// simulation's event trace and re-derives every machine- and
// policy-level guarantee the engine claims, from scratch, sharing no
// code with the scheduling fast paths it audits.
//
// The catalog (each name is a Violation.Invariant value, and each has a
// planted-violation test proving the checker actually fires):
//
//	monotonic-clock        event times never decrease
//	lifecycle              every arrived job starts at most once and
//	                       ends or is cancelled exactly once; arrivals
//	                       land at the job's submit instant
//	start-before-arrival   no job starts before it was submitted
//	capacity               the busy-node footprint (whole partitions,
//	                       internal fragmentation included) never
//	                       exceeds the machine, and never undershoots
//	                       the job's request
//	double-booking         no placement unit (midplane) is occupied by
//	                       two jobs at once
//	walltime-termination   a job ends exactly at start + min(runtime,
//	                       walltime), killed iff runtime > walltime
//	reservation-protected  the protected (EASY first-window)
//	                       reservation is never delayed: promises only
//	                       improve while held, and the holder starts no
//	                       later than its promised instant
//	retune-rule            BF/W transitions at each checkpoint match
//	                       the paper's QD-threshold and stock-ticker
//	                       rules replayed from the recorded inputs
//	metrics-recompute      avg wait, queue depth at checkpoints,
//	                       fairness counts, utilization, and the job
//	                       census recomputed from the trace match the
//	                       engine-reported values
//	window-optimality      the window permutation the search picked is
//	                       the lex-earliest optimum among all W!
//	                       candidates (VerifyWindow)
//	engine-state           per-step structural consistency of machine,
//	                       queue, and running set (CheckEngineState)
//
// The package depends only on job, machine, and units, so the engine
// (internal/sim) and the policies (internal/core) can both call into it
// without cycles.
package invariant

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"amjs/internal/job"
	"amjs/internal/units"
)

// Invariant names, as reported in Violation.Invariant.
const (
	InvClock       = "monotonic-clock"
	InvLifecycle   = "lifecycle"
	InvArrival     = "start-before-arrival"
	InvCapacity    = "capacity"
	InvOverlap     = "double-booking"
	InvWalltime    = "walltime-termination"
	InvReservation = "reservation-protected"
	InvRetune      = "retune-rule"
	InvMetrics     = "metrics-recompute"
	InvWindow      = "window-optimality"
	InvState       = "engine-state"
)

// Kind distinguishes trace events.
type Kind int

// The event kinds a Recorder emits, in the order the engine processes
// them within one instant: completions, arrivals, the checkpoint, then
// the scheduling pass's starts and reservation grants.
const (
	KindArrive Kind = iota
	KindStart
	KindEnd
	KindCancel
	KindCheckpoint
	KindReserve
	KindLapse
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindArrive:
		return "arrive"
	case KindStart:
		return "start"
	case KindEnd:
		return "end"
	case KindCancel:
		return "cancel"
	case KindCheckpoint:
		return "checkpoint"
	case KindReserve:
		return "reserve"
	case KindLapse:
		return "lapse"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TuningRule kinds — the paper's two monitor shapes.
const (
	RuleQueueDepth = "queue-depth" // E_m while depth >= threshold, E_p below
	RuleUtilTrend  = "util-trend"  // E_p while util(short) < util(long), E_m otherwise
)

// TuningRule is one adaptive scheme in checker-replayable form: enough
// of the paper's <T, Δ, M, Th, E_p, E_m> tuple to re-derive the tuning
// direction from the inputs the engine recorded at each checkpoint.
type TuningRule struct {
	Target           string // "BF" or "W"
	Kind             string // RuleQueueDepth or RuleUtilTrend
	ThresholdMinutes float64
	Short, Long      units.Duration // util-trend windows
	Delta, Min, Max  float64
}

// RuleSource is implemented by adaptive schedulers that can describe
// their retuning behaviour as TuningRules (core.Tuner). ok is false
// when the scheduler retunes in ways the rules cannot express; the
// checker then skips retune verification rather than mis-flagging it.
type RuleSource interface {
	TuningRules() (rules []TuningRule, ok bool)
}

// ReservationHolder is implemented by schedulers that keep a persistent
// protected reservation across passes (core.MetricAware and its tuner).
// The engine samples it after every executed pass to audit the "never
// delayed" guarantee.
type ReservationHolder interface {
	ProtectedReservation() (jobID int, start units.Time, held bool)
}

// LapseObserver is implemented by environments that record protection
// lapses. The scheduler calls ReservationLapsed at the one legitimate
// moment a holder's promise stops binding without the job starting or
// leaving: the holder was startable at pass entry (its promised instant
// is due, the promise is discharged) and it re-enters open competition —
// where it may be granted a fresh, later reservation. Without the
// notification the checker could not tell that re-grant from a backfill
// pass illegally pushing a live reservation back.
type LapseObserver interface {
	ReservationLapsed(jobID int)
}

// Event is one replayable trace record. Only the fields relevant to its
// Kind are meaningful.
type Event struct {
	T    units.Time
	Kind Kind

	// Arrive / Start / End / Cancel / Reserve.
	JobID    int
	Nodes    int
	Walltime units.Duration
	Runtime  units.Duration
	Submit   units.Time

	// Start.
	BlockNodes int   // busy-node footprint, internal fragmentation included
	Units      []int // placement units occupied; nil when the machine has none
	Fair       units.Time
	FairKnown  bool

	// End.
	Final job.State

	// Reserve.
	ResStart units.Time

	// Checkpoint.
	QD                float64      // engine-reported queue depth, minutes
	RuleInputs        [][2]float64 // monitor inputs, one per Trace.Rules entry
	BFBefore, BFAfter float64
	WBefore, WAfter   int
	HasTunables       bool
}

// Trace is a completed (or quiescent) run's full event history plus the
// scheduler description needed to judge it.
type Trace struct {
	TotalNodes        int
	FairnessTolerance units.Duration

	// Rules describes the scheduler's checkpoint retuning when
	// RulesKnown; Adaptive records whether the scheduler retunes at all
	// (an adaptive scheduler with unknown rules skips retune checks; a
	// non-adaptive one must never change its tunables).
	Rules      []TuningRule
	RulesKnown bool
	Adaptive   bool

	Events []Event
}

// Reported carries the engine/collector-reported aggregates the checker
// recomputes from scratch.
type Reported struct {
	AvgWaitMinutes float64
	UtilAvg        float64
	SpanSeconds    float64 // collector span (first to last scheduling step)
	Started        int
	Finished       int
	Killed         int
	UnfairCount    int
	FairKnownCount int
}

// Violation is one invariant breach found during a replay.
type Violation struct {
	Invariant string
	T         units.Time
	Msg       string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%d: %s", v.Invariant, int64(v.T), v.Msg)
}

// Join renders a violation list as one error message.
func Join(vs []Violation) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, "; ")
}

// maxViolations caps the report: once a fundamental invariant breaks,
// downstream checks cascade, and the first few violations carry all the
// signal.
const maxViolations = 32

// jobRec is the checker's per-job replay state.
type jobRec struct {
	submit   units.Time
	nodes    int
	walltime units.Duration
	runtime  units.Duration

	arriveT, startT units.Time
	arrived         bool
	queued          bool // waiting: arrived, neither started nor cancelled
	started         bool
	ended           bool
	cancelled       bool

	blockNodes int
	units      []int

	promise    units.Time // latest protected-reservation start promised
	hasPromise bool
}

// checker replays one trace.
type checker struct {
	tr  *Trace
	vs  []Violation
	eps float64

	last     units.Time
	haveLast bool

	jobs     map[int]*jobRec
	queue    []*jobRec   // arrival order; an entry no longer queued is dead
	dead     int         // dead entries in queue
	occupant map[int]int // placement unit -> job occupying it
	busy     int         // sum of running jobs' block-node footprints
	holderID int         // current protected-reservation holder (0 = none)

	// Recomputed metrics.
	busyInt   float64 // ∫ busy dt over the trace
	waitSum   float64 // minutes, accumulated in start order
	started   int
	finished  int
	killed    int
	unfair    int
	fairKnown int
}

// Check replays the trace and returns every invariant violation found
// (nil for a valid schedule). rep supplies the engine-reported
// aggregates for the metrics-recompute invariant.
func Check(tr *Trace, rep Reported) []Violation {
	c := &checker{
		tr:       tr,
		jobs:     make(map[int]*jobRec),
		occupant: make(map[int]int),
	}
	for i := range tr.Events {
		if len(c.vs) >= maxViolations {
			return c.vs
		}
		c.event(&tr.Events[i])
	}
	c.finalize(rep)
	return c.vs
}

func (c *checker) fail(inv string, t units.Time, format string, args ...any) {
	if len(c.vs) < maxViolations {
		c.vs = append(c.vs, Violation{Invariant: inv, T: t, Msg: fmt.Sprintf(format, args...)})
	}
}

// rec returns the job's replay record, creating it on first reference.
func (c *checker) rec(id int) *jobRec {
	r := c.jobs[id]
	if r == nil {
		r = &jobRec{}
		c.jobs[id] = r
	}
	return r
}

// dequeue removes a job from the replayed waiting queue. The queue
// leaves order-preserving holes instead of splicing, which made a start
// from a deep queue linear; the holes are squeezed out once they are
// the majority.
func (c *checker) dequeue(r *jobRec) {
	if !r.queued {
		return
	}
	r.queued = false
	c.dead++
	if c.dead > len(c.queue)/2 {
		c.queue = slices.DeleteFunc(c.queue, func(q *jobRec) bool { return !q.queued })
		c.dead = 0
	}
}

// event replays one trace record.
func (c *checker) event(ev *Event) {
	if c.haveLast {
		if ev.T < c.last {
			c.fail(InvClock, ev.T, "%s event at t=%d after t=%d", ev.Kind, int64(ev.T), int64(c.last))
		} else {
			// Busy is a step function; integrate the segment just closed.
			c.busyInt += float64(c.busy) * float64(ev.T-c.last)
			c.last = ev.T
		}
	} else {
		c.last = ev.T
		c.haveLast = true
	}

	switch ev.Kind {
	case KindArrive:
		c.arrive(ev)
	case KindStart:
		c.start(ev)
	case KindEnd:
		c.end(ev)
	case KindCancel:
		c.cancel(ev)
	case KindCheckpoint:
		c.checkpoint(ev)
	case KindReserve:
		c.reserve(ev)
	case KindLapse:
		c.lapse(ev)
	default:
		c.fail(InvLifecycle, ev.T, "unknown event kind %d", int(ev.Kind))
	}
}

func (c *checker) arrive(ev *Event) {
	r := c.rec(ev.JobID)
	if r.arrived {
		c.fail(InvLifecycle, ev.T, "job %d arrived twice", ev.JobID)
		return
	}
	if ev.T != ev.Submit {
		c.fail(InvLifecycle, ev.T, "job %d arrived at t=%d but submitted at t=%d",
			ev.JobID, int64(ev.T), int64(ev.Submit))
	}
	r.arrived = true
	r.arriveT = ev.T
	r.submit = ev.Submit
	r.nodes = ev.Nodes
	r.walltime = ev.Walltime
	r.runtime = ev.Runtime
	r.queued = true
	c.queue = append(c.queue, r)
}

func (c *checker) start(ev *Event) {
	r := c.rec(ev.JobID)
	switch {
	case !r.arrived:
		c.fail(InvLifecycle, ev.T, "job %d started without arriving", ev.JobID)
		return
	case r.started:
		c.fail(InvLifecycle, ev.T, "job %d started twice", ev.JobID)
		return
	case r.cancelled:
		c.fail(InvLifecycle, ev.T, "cancelled job %d started", ev.JobID)
		return
	}
	if ev.T < r.submit {
		c.fail(InvArrival, ev.T, "job %d started at t=%d, before its submission at t=%d",
			ev.JobID, int64(ev.T), int64(r.submit))
	}
	if ev.BlockNodes < r.nodes {
		c.fail(InvCapacity, ev.T, "job %d footprint %d nodes smaller than its request %d",
			ev.JobID, ev.BlockNodes, r.nodes)
	}
	if c.busy+ev.BlockNodes > c.tr.TotalNodes {
		c.fail(InvCapacity, ev.T, "job %d start raises busy nodes to %d on a %d-node machine",
			ev.JobID, c.busy+ev.BlockNodes, c.tr.TotalNodes)
	}
	for _, u := range ev.Units {
		if other, taken := c.occupant[u]; taken {
			c.fail(InvOverlap, ev.T, "midplane %d double-booked by jobs %d and %d", u, other, ev.JobID)
		} else {
			c.occupant[u] = ev.JobID
		}
	}
	if r.hasPromise && ev.T > r.promise {
		c.fail(InvReservation, ev.T, "job %d started at t=%d, delayed past its protected reservation at t=%d",
			ev.JobID, int64(ev.T), int64(r.promise))
	}
	if c.holderID == ev.JobID {
		c.holderID = 0
	}

	r.started = true
	r.startT = ev.T
	r.blockNodes = ev.BlockNodes
	r.units = ev.Units
	c.busy += ev.BlockNodes
	c.dequeue(r)

	// Metrics, accumulated exactly as the collector does: waits in
	// start order, unfairness against fair start + tolerance.
	c.started++
	c.waitSum += ev.T.Sub(r.submit).Minutes()
	if ev.FairKnown {
		c.fairKnown++
		if ev.T > ev.Fair.Add(c.tr.FairnessTolerance) {
			c.unfair++
		}
	}
}

func (c *checker) end(ev *Event) {
	r := c.rec(ev.JobID)
	switch {
	case !r.started:
		c.fail(InvLifecycle, ev.T, "job %d ended without starting", ev.JobID)
		return
	case r.ended:
		c.fail(InvLifecycle, ev.T, "job %d ended twice", ev.JobID)
		return
	}
	effective := r.runtime
	killed := false
	if effective > r.walltime {
		effective = r.walltime
		killed = true
	}
	if want := r.startT.Add(effective); ev.T != want {
		c.fail(InvWalltime, ev.T, "job %d ended at t=%d, want t=%d (start %d + min(runtime %d, walltime %d))",
			ev.JobID, int64(ev.T), int64(want), int64(r.startT), int64(r.runtime), int64(r.walltime))
	}
	wantState := job.Finished
	if killed {
		wantState = job.Killed
	}
	if ev.Final != wantState {
		c.fail(InvWalltime, ev.T, "job %d ended in state %v, want %v", ev.JobID, ev.Final, wantState)
	}
	r.ended = true
	c.busy -= r.blockNodes
	if c.busy < 0 {
		c.fail(InvCapacity, ev.T, "busy nodes went negative at job %d's end", ev.JobID)
		c.busy = 0
	}
	for _, u := range r.units {
		if c.occupant[u] != ev.JobID {
			c.fail(InvOverlap, ev.T, "midplane %d not held by job %d at its end", u, ev.JobID)
		}
		delete(c.occupant, u)
	}
	if killed {
		c.killed++
	} else {
		c.finished++
	}
}

func (c *checker) cancel(ev *Event) {
	r := c.rec(ev.JobID)
	switch {
	case !r.arrived:
		c.fail(InvLifecycle, ev.T, "job %d cancelled without arriving", ev.JobID)
		return
	case r.started:
		c.fail(InvLifecycle, ev.T, "job %d cancelled after starting", ev.JobID)
		return
	case r.cancelled:
		c.fail(InvLifecycle, ev.T, "job %d cancelled twice", ev.JobID)
		return
	}
	r.cancelled = true
	r.hasPromise = false
	c.dequeue(r)
	if c.holderID == ev.JobID {
		c.holderID = 0
	}
}

func (c *checker) reserve(ev *Event) {
	r := c.rec(ev.JobID)
	if !r.arrived || r.started || r.cancelled {
		c.fail(InvReservation, ev.T, "protected reservation granted to job %d, which is not queued", ev.JobID)
		return
	}
	if ev.ResStart <= ev.T {
		c.fail(InvReservation, ev.T, "job %d's protected reservation at t=%d is not in the future",
			ev.JobID, int64(ev.ResStart))
	}
	if c.holderID != 0 && c.holderID != ev.JobID {
		// Protection moved to a different job; the old holder's promise
		// is no longer backed by a committed reservation, so it stops
		// binding (the guarantee protects the current holder only).
		if old := c.jobs[c.holderID]; old != nil {
			old.hasPromise = false
		}
	} else if c.holderID == ev.JobID && r.hasPromise && ev.ResStart > r.promise {
		// A continuously-held promise may only improve. A later start
		// is legitimate only across a recorded lapse (which clears the
		// holder, making this grant a fresh one).
		c.fail(InvReservation, ev.T, "job %d's protected reservation regressed from t=%d to t=%d",
			ev.JobID, int64(r.promise), int64(ev.ResStart))
	}
	c.holderID = ev.JobID
	r.promise = ev.ResStart
	r.hasPromise = true
}

// lapse discharges the holder's promise without a start: the scheduler
// reported the holder startable at pass entry, the one legitimate exit
// from protection other than starting or leaving the queue.
func (c *checker) lapse(ev *Event) {
	r := c.rec(ev.JobID)
	if c.holderID != ev.JobID {
		c.fail(InvReservation, ev.T, "reservation lapse reported for job %d, which holds no protection", ev.JobID)
		return
	}
	c.holderID = 0
	r.hasPromise = false
}

func (c *checker) checkpoint(ev *Event) {
	// Queue depth, recomputed from the replayed queue in arrival order
	// (the engine's iteration order, so the float sum matches exactly).
	qd := 0.0
	for _, r := range c.queue {
		if r.queued {
			qd += ev.T.Sub(r.submit).Minutes()
		}
	}
	if !closeEnough(qd, ev.QD) {
		c.fail(InvMetrics, ev.T, "checkpoint queue depth %.9g minutes, engine reported %.9g", qd, ev.QD)
	}

	if !ev.HasTunables {
		return
	}
	if !c.tr.Adaptive {
		if ev.BFAfter != ev.BFBefore || ev.WAfter != ev.WBefore {
			c.fail(InvRetune, ev.T, "non-adaptive scheduler retuned: BF %g→%g, W %d→%d",
				ev.BFBefore, ev.BFAfter, ev.WBefore, ev.WAfter)
		}
		return
	}
	if !c.tr.RulesKnown {
		return // adaptive in ways the rules cannot express; nothing to judge
	}
	if len(ev.RuleInputs) != len(c.tr.Rules) {
		c.fail(InvRetune, ev.T, "checkpoint recorded %d rule inputs for %d rules",
			len(ev.RuleInputs), len(c.tr.Rules))
		return
	}
	bf, w := ev.BFBefore, ev.WBefore
	for i, rule := range c.tr.Rules {
		in := ev.RuleInputs[i]
		dir := 0
		switch rule.Kind {
		case RuleQueueDepth:
			// The paper's ≥-threshold trigger: deep queue fires E_m.
			if in[0] >= rule.ThresholdMinutes {
				dir = -1
			} else {
				dir = +1
			}
		case RuleUtilTrend:
			// The stock-ticker rule: short average below long fires E_p.
			if in[0] < in[1] {
				dir = +1
			} else {
				dir = -1
			}
		default:
			return // unknown monitor shape; cannot judge this checkpoint
		}
		cur := bf
		if rule.Target == "W" {
			cur = float64(w)
		}
		next := cur + float64(dir)*rule.Delta
		if next < rule.Min {
			next = rule.Min
		}
		if next > rule.Max {
			next = rule.Max
		}
		if rule.Target == "W" {
			w = int(next + 0.5)
		} else {
			bf = next
		}
	}
	if math.Abs(bf-ev.BFAfter) > 1e-12 || w != ev.WAfter {
		c.fail(InvRetune, ev.T, "retune produced BF=%g W=%d, rules require BF=%g W=%d (from BF=%g W=%d)",
			ev.BFAfter, ev.WAfter, bf, w, ev.BFBefore, ev.WBefore)
	}
}

// finalize runs the end-of-trace checks: completion of every arrived
// job, and the metrics recompute against the engine-reported values.
func (c *checker) finalize(rep Reported) {
	if len(c.vs) >= maxViolations {
		return
	}
	for id, r := range c.jobs {
		if r.arrived && !r.ended && !r.cancelled {
			c.fail(InvLifecycle, c.last, "job %d never completed", id)
		}
	}
	if c.busy != 0 {
		c.fail(InvCapacity, c.last, "%d nodes still busy after the last event", c.busy)
	}
	if len(c.occupant) != 0 {
		c.fail(InvOverlap, c.last, "%d midplanes still occupied after the last event", len(c.occupant))
	}

	if c.started != rep.Started {
		c.fail(InvMetrics, c.last, "trace starts %d jobs, engine reported %d", c.started, rep.Started)
	}
	if c.finished != rep.Finished || c.killed != rep.Killed {
		c.fail(InvMetrics, c.last, "trace census finished=%d killed=%d, engine reported finished=%d killed=%d",
			c.finished, c.killed, rep.Finished, rep.Killed)
	}
	if c.unfair != rep.UnfairCount || c.fairKnown != rep.FairKnownCount {
		c.fail(InvMetrics, c.last, "trace fairness unfair=%d known=%d, engine reported unfair=%d known=%d",
			c.unfair, c.fairKnown, rep.UnfairCount, rep.FairKnownCount)
	}
	if c.started > 0 {
		avgWait := c.waitSum / float64(c.started)
		if !closeEnough(avgWait, rep.AvgWaitMinutes) {
			c.fail(InvMetrics, c.last, "trace average wait %.9g minutes, engine reported %.9g",
				avgWait, rep.AvgWaitMinutes)
		}
	}
	if rep.SpanSeconds > 0 && c.tr.TotalNodes > 0 {
		// The busy integral is complete once every job has ended (busy
		// is zero beyond the last end), so the collector's span — which
		// may extend past the last trace event to a trailing tick —
		// only changes the denominator, which Reported supplies.
		util := c.busyInt / (float64(c.tr.TotalNodes) * rep.SpanSeconds)
		if !closeEnough(util, rep.UtilAvg) {
			c.fail(InvMetrics, c.last, "trace utilization %.9g, engine reported %.9g", util, rep.UtilAvg)
		}
	}
}

// closeEnough compares recomputed and reported floats. Both sides sum
// the same exactly-representable terms, so they agree to well below
// this tolerance; the slack only covers differing summation
// associativity on extreme traces.
func closeEnough(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}
