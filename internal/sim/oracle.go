package sim

import (
	"runtime"
	"slices"
	"sync/atomic"

	"amjs/internal/invariant"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// fairOracle computes fair start times for one top-level engine. A
// job's fair start is the start it would get if no job arrived after
// it, under the current policy with its current tuning, from the
// current machine state (Sabin et al.'s definition, as used by the
// paper). It is defined at submission, before that instant's scheduling
// pass, and all jobs arriving at one instant see the same
// no-later-arrival world, so they form one batch.
//
// The oracle defers instead of simulating, in both engine modes: until
// a divergence event the no-later-arrival world IS the main schedule,
// and a pending job that starts before one resolves for free — its fair
// start is its actual start, with no nested simulation. In periodic
// mode the fair world runs on the same tick and checkpoint grids as the
// main engine, and the divergence events are a pass that provably acts
// beyond the batch's arrival instant (the scheduler-reported horizon;
// see sched.PassReport and endPass), a cancellation that invalidates
// the batch's world, and an adaptive retune that unfreezes the policy.
// In event mode the fair world is the closed system whose passes fire
// exactly at the batch's own arrival and at job completions — every one
// of which is also a main-engine pass instant — so the same horizon
// test applies there, plus one extra frontier, the phantom instant (see
// endPass).
//
// The event loop calls arrive, beforeRetune, beginPass/endPass,
// deferStart/startedGlued (from begin) and cancelling (from
// cancelQueued). A diverged batch's world is forked synchronously, then
// runs on a goroutine of its own while the main schedule advances (see
// launch); beginEffects joins it when a target starts, and engine.run
// joins every world before returning.
type fairOracle struct {
	e *engine // the engine whose submissions the oracle serves

	// pending holds the arrival batches whose fair starts are deferred,
	// in arrival order.
	pending []pendingBatch

	// batchFree recycles retired pendingBatch slot slices, so a steady
	// fairness workload stops allocating one slice per arrival instant.
	batchFree [][]int32

	// Deferred-pass scratch (see beginPass): the pre-pass queue
	// snapshot, the pre-pass scheduler clone, and the starts the pass
	// performed so far, kept so a batch that diverges mid-pass can fork
	// its fair world from the exact pre-pass state. passDefer gates
	// begin's side-effect deferral while a snapshot is live. passSched
	// outlives its pass as the retired instance the next snapshot is
	// cloned into.
	passQueue  []*job.Job
	passSched  sched.Scheduler
	passBegins []passBegin
	passDefer  bool

	// The fair worlds: free holds the idle ones, flight the diverged ones
	// running on their own goroutines, oldest first. Worlds are reused, so
	// a run holds at most maxInFlight()+1 of them once the cap settles.
	free   []*fairWorld
	flight []*fairWorld
}

// fairPending marks a fairStarts entry whose world is still in flight.
// Fair starts are never negative (a job's is at or after its submit
// time, and Job.Validate rejects negative submits).
const fairPending units.Time = -1

// fairRuns counts the fairness-on engines of this process that are
// stepping (see engine.run and Live.advance): the runs whose main
// schedules and fair worlds share its processors.
var fairRuns atomic.Int32

// maxInFlight caps one run's diverged fair worlds running at once, and
// with it the worlds the run holds. Worlds take from microseconds to
// milliseconds; two per processor let short worlds launch and land
// beside a long one. Concurrent fairness runs split that budget, so a
// process running one per processor (a sweep's worker pool) holds a
// few worlds per run rather than 2·GOMAXPROCS each, and every run keeps
// at least one world beside its main schedule. At the cap, launch joins
// the oldest before starting another. The cap moves only when joins
// happen, never a result.
func maxInFlight() int {
	return max(1, 2*runtime.GOMAXPROCS(0)/max(1, int(fairRuns.Load())))
}

// fairWorld is one pooled fair world: the fork, the clones of the batch
// members it resolves, and the channel its goroutine reports on.
type fairWorld struct {
	world
	targets []*job.Job // the world's clones of its batch's jobs, in arrival order
	done    chan error // the run's outcome; one slot, so the runner never blocks
}

// run drives the seeded world until every target has started — unless
// err says an earlier step already failed — and reports the outcome.
// It runs on the world's goroutine and touches nothing but the world.
func (fw *fairWorld) run(err error) {
	if err == nil {
		err = fw.sub.run(fw.targetsStarted)
	}
	fw.done <- err
}

// targetsStarted is the world's stop condition: no target still queued.
func (fw *fairWorld) targetsStarted() bool {
	for _, c := range fw.targets {
		if c.State == job.Queued {
			return false
		}
	}
	return true
}

// pendingBatch is one arrival instant's deferred fair-start batch: the
// slots of the jobs that arrived at instant t and still await their
// fair start. Every member is queued: a member leaves the batch when it
// starts (startedGlued), and a cancellation resolves the batch.
type pendingBatch struct {
	t     units.Time
	slots []int32
}

// arrive defers the fair starts of the jobs that arrived at the current
// instant.
func (o *fairOracle) arrive(slots []int32) {
	var b []int32
	if k := len(o.batchFree); k > 0 {
		b, o.batchFree = o.batchFree[k-1], o.batchFree[:k-1]
	}
	o.pending = append(o.pending, pendingBatch{t: o.e.now, slots: append(b, slots...)})
}

// retireBatch returns a resolved batch's slot slice to the freelist.
func (o *fairOracle) retireBatch(b []int32) {
	if cap(b) > 0 {
		o.batchFree = append(o.batchFree, b[:0])
	}
}

// startedGlued removes j from whichever deferred batch holds it,
// dropping the batch when it empties, and reports whether it was found.
// Found means the job started while its batch was still glued to the
// main schedule, so the free path applies: its no-later-arrival world
// is the main schedule itself and its fair start is its actual start.
func (o *fairOracle) startedGlued(j *job.Job) bool {
	s := j.Slot()
	for bi := range o.pending {
		b := &o.pending[bi]
		for i, p := range b.slots {
			if p == s {
				b.slots = append(b.slots[:i], b.slots[i+1:]...)
				if len(b.slots) == 0 {
					o.retireBatch(b.slots)
					o.pending = append(o.pending[:bi], o.pending[bi+1:]...)
				}
				return true
			}
		}
	}
	return false
}

// deferStart reports whether a start's accounting must wait for the
// running pass to finish, recording the start when so: whether it
// resolves for free or against a forked fair world is only known once
// the pass's horizon is in (see endPass).
func (o *fairOracle) deferStart(j *job.Job, a machine.Alloc) bool {
	if o.passDefer {
		o.passBegins = append(o.passBegins, passBegin{j, a})
	}
	return o.passDefer
}

// cancelling resolves the deferred batches a queued job's cancellation
// diverges — exactly the fair worlds that contain the job: the batches
// that arrived at or after its submission. They resolve now, from the
// still-shared prefix, with the job still queued, exactly as their
// closed no-later-arrival worlds have it. Earlier batches keep
// deferring: to them the cancelled job was an extra (submitted after
// their instant), and removing an extra only shrinks the set of passes
// that can diverge. (It cannot hold a reservation their worlds lack: a
// pass granting one would have reported a horizon past their instant
// and resolved them then.) Batches are in arrival order, so the suffix
// starting at the first t >= Submit is the affected set.
func (o *fairOracle) cancelling(j *job.Job) {
	i := 0
	for i < len(o.pending) && o.pending[i].t < j.Submit {
		i++
	}
	// forkPass is false: cancellation happens between steps, after the
	// last instant's pass already ran — and for a glued batch the closed
	// world ran that pass too (or provably skipped it). A fork-instant
	// pass here would run a second pass on the post-pass state, which
	// the closed world never does.
	for _, b := range o.pending[i:] {
		o.resolveLive(b, false)
	}
	o.pending = o.pending[:i]
}

// beforeRetune resolves every deferred batch against the current state
// — the adaptive-retune divergence: pending fair worlds keep the policy
// frozen as it was at their arrival, which up to here equals the live
// policy (any earlier retune would have resolved them already). The
// engine calls it from the checkpoint block before the tuning changes;
// at that point neither grid has re-armed, so nextTick and nextCheck
// still hold any grid instant that fired at now and the forks replay
// this instant's pass under the frozen policy. In event mode a fork
// seeds its own pass at the fork instant exactly when the closed world
// has one here: a completion fired, or the batch was born at this
// instant.
func (o *fairOracle) beforeRetune() {
	for _, b := range o.pending {
		o.resolveLive(b, o.e.endedNow || b.t == o.e.now)
	}
	o.pending = o.pending[:0]
}

// resolveLive forks one batch's no-later-arrival world from the
// engine's live state, on the grids as the engine holds them, and
// launches it. The nested run retunes at no checkpoint, so adaptive
// policies stay frozen.
func (o *fairOracle) resolveLive(b pendingBatch, forkPass bool) {
	e := o.e
	fw := o.seed(b, e.queue.jobs(), e.scheduler, nil)
	fw.armGrids(e.nextTick, e.nextCheck, forkPass)
	o.launch(fw, nil)
	o.retireBatch(b.slots)
}

// seed takes an idle fair world and forks it for batch b (see
// world.fork: the scheduler cloned from schedSrc, queueView cut at the
// batch's instant, begun rewound), then collects the clones of the
// batch's jobs, which are a subsequence of the cut view in arrival
// order. Jobs arriving at one instant are all already queued when the
// oracle runs, so each one's no-later-arrival world is the same
// simulation; one deterministic nested run therefore yields every batch
// member's fair start, bit-identical to running the oracle per job.
func (o *fairOracle) seed(b pendingBatch, queueView []*job.Job, schedSrc sched.Scheduler, begun []passBegin) *fairWorld {
	var fw *fairWorld
	if k := len(o.free); k > 0 {
		fw, o.free = o.free[k-1], o.free[:k-1]
	} else {
		fw = &fairWorld{done: make(chan error, 1)}
	}
	sub := fw.fork(o.e, schedSrc, queueView, b.t, begun)
	fw.targets = fw.targets[:0]
	for s := range int32(sub.queue.len()) {
		c := sub.table.At(s)
		if k := len(fw.targets); k < len(b.slots) && c.ID == o.e.table.At(b.slots[k]).ID {
			fw.targets = append(fw.targets, c)
		}
	}
	if len(fw.targets) != len(b.slots) {
		panic("sim: oracle targets missing from the queue")
	}
	return fw
}

// launch runs a seeded fair world to completion on a goroutine of its
// own and marks its targets' fair starts pending. This is sound because
// a fair start feeds only accounting — the collector's unfair count, the
// validity trace, Result.FairStarts — and no scheduling decision, tuner
// input or later fork reads it; the fork already copied everything the
// world needs, so the main engine may keep scheduling. The main
// goroutine stays the only writer of fairStarts: results are copied in
// by join. A non-nil err (from a caller that already stepped the world)
// skips the run and records the failure outcome.
func (o *fairOracle) launch(fw *fairWorld, err error) {
	for _, c := range fw.targets {
		o.e.fairStarts[c.ID] = fairPending
	}
	for len(o.flight) >= maxInFlight() {
		o.joinOldest()
	}
	o.flight = append(o.flight, fw)
	go fw.run(err)
}

// joinOldest waits for the oldest world in flight, records its targets'
// fair starts, and returns it to the idle pool — or drops it, once the
// pool exceeds what the current cap can use (it shrinks when other
// fairness runs start).
func (o *fairOracle) joinOldest() {
	fw := o.flight[0]
	o.flight = o.flight[:copy(o.flight, o.flight[1:])]
	err := <-fw.done
	for _, c := range fw.targets {
		start := c.Start
		if err != nil || (c.State != job.Running && c.State != job.Finished && c.State != job.Killed) {
			start = units.Forever // should not happen: the queue always drains
		}
		o.e.fairStarts[c.ID] = start
	}
	if len(o.free)+len(o.flight) < maxInFlight()+1 {
		o.free = append(o.free, fw)
	}
}

// joinAll waits for every world in flight, so that every fair start is
// final.
func (o *fairOracle) joinAll() {
	for len(o.flight) > 0 {
		o.joinOldest()
	}
}

// beginPass snapshots the pre-pass state before a scheduling pass that
// executes with deferred batches outstanding: the queue as the pass
// sees it and the scheduler as it is before the pass mutates it. If the
// pass then acts beyond a batch's arrival instant, that batch's fair
// world forks from this snapshot; begin defers its accounting while the
// snapshot is live so the flush happens only after diverged batches are
// resolved.
func (o *fairOracle) beginPass() {
	if len(o.pending) == 0 {
		return
	}
	o.passQueue = append(o.passQueue[:0], o.e.queue.jobs()...)
	o.passSched = cloneScheduler(o.e.scheduler, o.passSched)
	o.passBegins = o.passBegins[:0]
	o.passDefer = true
}

// endPass decides, after a deferring pass, which batches the pass
// diverged from. With a bounded sched.PassReport the test is one
// comparison: the reported horizon H guarantees the pass would have
// produced the identical outcome (same starts, same placements, same
// post-pass scheduler state) on any sub-queue extending to H, so a
// batch at instant t stays glued iff H <= t. Other schedulers fall back
// to "extras existed": any pass that saw a job submitted after the
// batch's instant diverges it.
//
// Event mode adds the phantom-instant rule. A glued batch's closed
// world passes exactly at its own arrival instant and at completion
// instants — completions seed its heap and dirty it, and while glued it
// runs no extras, so every end event it sees the main engine sees too.
// An instant with no completion is therefore a phantom to every older
// batch (its extra-arrival and checkpoint events do not exist in the
// closed world): the main engine passes, the closed world does not. The
// batch survives a phantom pass only when that pass provably changed
// nothing — started no job and mutated no persistent scheduler state
// (PassReport.Mutated; schedulers that report nothing are assumed to
// mutate) — so that skipping it, as the closed world does, is the same
// as running it. A batch born at this very instant is never
// phantom-diverged (its world passes here by construction) and cannot
// horizon-diverge either: every queued submit is <= now = its t.
//
// Diverged batches fork from the pre-pass snapshot; the rest keep
// riding the main schedule for free. Finally the deferred begin effects
// flush, so a batch member that started in this very pass is accounted
// with its resolved fair start.
func (o *fairOracle) endPass(checkpoint bool) {
	if !o.passDefer {
		return
	}
	o.passDefer = false
	e := o.e
	rep := passReport(e.scheduler)
	horizon := rep.Horizon
	if !rep.Bounded && len(o.passQueue) > 0 {
		horizon = o.passQueue[len(o.passQueue)-1].Submit
	}
	kept := o.pending[:0]
	for _, b := range o.pending {
		diverged := false
		if e.cfg.SchedulePeriod <= 0 && !e.endedNow && b.t < e.now {
			// A phantom instant for this batch: its closed world has no
			// event here and runs no pass at all. The horizon is
			// irrelevant: it bounds the outcome of a pass the closed
			// world never runs. A diverged batch's fork is armed with
			// nothing, for the same reason: it schedules next at its
			// next completion.
			diverged = len(o.passBegins) > 0 || rep.Mutated
			if diverged {
				o.launch(o.seed(b, o.passQueue, o.passSched, o.passBegins), nil)
			}
		} else if horizon > b.t {
			// The horizon cannot rule divergence out; replay the pass
			// in the batch's restricted world and compare exactly. An
			// echo keeps the batch glued; a mismatch means the replayed
			// world is already resolving it.
			diverged = !o.resolveOrEcho(b, checkpoint)
		}
		if diverged {
			o.retireBatch(b.slots)
		} else {
			kept = append(kept, b)
		}
	}
	o.pending = kept
	for _, pb := range o.passBegins {
		e.beginEffects(pb.j, pb.a)
	}
	o.passBegins = o.passBegins[:0]
}

// resolveOrEcho handles a batch the pass horizon could not keep glued:
// the horizon is conservative, so before paying for a full fair-world
// resolution the oracle replays the deferring pass in the batch's
// restricted world and compares outcomes exactly — the same jobs
// started on the same nodes, the same persistent scheduler state. An
// echo (identical outcome) means the closed world runs this pass to the
// same effect as the main engine's, the glue invariant survives, and
// the batch keeps riding the main schedule for free; resolveOrEcho
// reports true and the discarded replay is the only cost. On a genuine
// divergence nothing is wasted either: the replayed world, seeded from
// the same pre-pass snapshot a fork would use and already one step past
// the fork instant, simply keeps running as the batch's fair world.
//
// The replay executes through sub.step, so both engine modes reproduce
// the fork-instant pass bit-exactly (grids, elision bookkeeping, event
// drains) with no duplicated step logic. Diverge candidates only reach
// here at shared pass instants — in event mode a completion instant or
// the batch's own arrival — so the closed world provably has a pass at
// this instant and the replay is meaningful.
func (o *fairOracle) resolveOrEcho(b pendingBatch, checkpoint bool) (glued bool) {
	echoable := true
	for _, pb := range o.passBegins {
		if pb.j.Submit > b.t {
			echoable = false // the pass started an extra: genuinely diverged
			break
		}
	}
	// The fork re-enters the grids at the engine's armed instants, with
	// one asymmetry from step's ordering: the checkpoint grid re-arms
	// before the pass, so when this instant's checkpoint already fired
	// the fork must re-inject a checkpoint at now to force the pass the
	// main engine just ran; the tick grid re-arms after the pass, so
	// nextTick still holds this instant when a tick fired.
	checkAt := o.e.nextCheck
	if checkpoint {
		checkAt = o.e.now
	}
	fw := o.seed(b, o.passQueue, o.passSched, o.passBegins)
	fw.armGrids(o.e.nextTick, checkAt, true)
	_, err := fw.sub.step()
	if err == nil && echoable && o.passEchoed(fw.sub) {
		o.free = append(o.free, fw)
		return true
	}
	o.launch(fw, err)
	return false
}

// passEchoed reports whether the restricted world's fork-instant pass
// (just executed in sub) reproduced the main engine's deferring pass
// exactly: the same jobs started on the same physical nodes, and the
// same persistent scheduler state afterwards. The replay's allocation
// handles are its own machine's (handles are not placements), so
// placement is compared by footprint where the machine exposes one; on
// placement-free machines (flat) the started-job set alone determines
// the state.
func (o *fairOracle) passEchoed(sub *engine) bool {
	e := o.e
	started := 0
	for i, cs := range sub.running.slots {
		c, a := sub.table.At(cs), sub.running.allocs[i]
		if c.Start != e.now {
			continue // seeded from the pre-pass running set
		}
		started++
		match := false
		for _, pb := range o.passBegins {
			if pb.j.ID == c.ID {
				match = sameFootprint(e.machine, pb.a, sub.machine, a)
				break
			}
		}
		if !match {
			return false
		}
	}
	if started != len(o.passBegins) {
		return false
	}

	// Same persistent scheduler state. Reservation holders expose
	// theirs for comparison; otherwise both passes must prove they
	// mutated nothing (PassReport.Mutated). Anything else is unknowable
	// from outside, so the batch resolves.
	if mh, ok := e.scheduler.(invariant.ReservationHolder); ok {
		sh, ok := sub.scheduler.(invariant.ReservationHolder)
		if !ok {
			return false
		}
		mi, mt, mheld := mh.ProtectedReservation()
		si, st, sheld := sh.ProtectedReservation()
		return mi == si && mt == st && mheld == sheld
	}
	return !passReport(e.scheduler).Mutated && !passReport(sub.scheduler).Mutated
}

// sameFootprint reports whether two allocations on two machine
// instances occupy the same physical units.
func sameFootprint(m1 machine.Machine, a1 machine.Alloc, m2 machine.Machine, a2 machine.Alloc) bool {
	f1, ok1 := m1.(machine.Footprinter)
	f2, ok2 := m2.(machine.Footprinter)
	if !ok1 || !ok2 {
		return ok1 == ok2 // placement-free machines have no footprint to differ
	}
	u1, p1, ok1 := f1.AllocUnits(a1)
	u2, p2, ok2 := f2.AllocUnits(a2)
	return ok1 && ok2 && p1 == p2 && slices.Equal(u1, u2)
}
