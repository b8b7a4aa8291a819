// Package machine models the compute resource a scheduler allocates
// jobs onto.
//
// Two models are provided:
//
//   - Flat: a malleable pool of nodes with no placement constraints.
//     Any set of idle nodes satisfies any request that fits, so external
//     fragmentation cannot occur (only reservation draining can idle
//     nodes).
//
//   - Partition: a Blue Gene/P-style machine built from midplanes, on
//     which jobs run in contiguous, aligned, power-of-two partitions
//     (plus the full-system partition). Aligned contiguous allocation is
//     what produces the external fragmentation — and hence the loss of
//     capacity — that the paper's window-based allocation attacks.
//
// Both models expose a Plan: an isolated what-if view of future
// availability (running jobs are assumed to end at their walltime
// limits) into which schedulers commit tentative placements. Plans are
// the single mechanism behind backfill legality checks, reservations,
// and the window allocator's permutation search.
package machine

import (
	"math/bits"

	"amjs/internal/units"
)

// Alloc is an opaque handle to a live allocation on a Machine.
type Alloc int64

// NoAlloc is the zero, invalid allocation handle.
const NoAlloc Alloc = 0

// Machine is a compute resource that can start and release jobs and
// answer what-if planning queries.
type Machine interface {
	// Name identifies the model, e.g. "flat-1024" or "partition-80x512".
	Name() string

	// TotalNodes is the machine's full node count.
	TotalNodes() int

	// IdleNodes is the number of nodes not occupied by any allocation.
	IdleNodes() int

	// BusyNodes is the number of nodes occupied by allocations (for a
	// partitioned machine this counts whole partitions, including any
	// internal fragmentation within them).
	BusyNodes() int

	// UsedNodes is the number of nodes actually requested by the jobs
	// currently running (excludes internal fragmentation).
	UsedNodes() int

	// RunningCount is the number of live allocations.
	RunningCount() int

	// CanFitEver reports whether a request of the given size could ever
	// be satisfied on an empty machine.
	CanFitEver(nodes int) bool

	// CanStartNow reports whether a request of the given size could be
	// started immediately (placement constraints included).
	CanStartNow(nodes int) bool

	// TryStart attempts to start a job now using the machine's default
	// (first-fit) placement. walltime is the scheduler-visible runtime
	// bound, recorded so that plans can predict when the nodes free up.
	TryStart(jobID, nodes int, now units.Time, walltime units.Duration) (Alloc, bool)

	// TryStartAt is TryStart with an explicit placement hint previously
	// obtained from a Plan, so that executions land exactly where the
	// plan assumed (critical when reservations are outstanding).
	TryStartAt(jobID, nodes int, now units.Time, walltime units.Duration, hint int) (Alloc, bool)

	// Release frees an allocation. It panics on an unknown handle: that
	// is a simulator bookkeeping bug, not an input error.
	Release(a Alloc, now units.Time)

	// Plan returns a fresh what-if planner seeded with the current
	// allocations' walltime-based end estimates.
	Plan(now units.Time) Plan

	// Clone returns an independent deep copy of the machine.
	Clone() Machine

	// CloneInto is Clone with buffer reuse. When dst is a retired clone
	// with the same geometry, the state is copied into dst's backing
	// storage and dst is returned; otherwise (dst nil, another model,
	// another geometry, or the source itself) a fresh Clone is
	// allocated. The fairness oracle re-clones the machine on every
	// nested no-later-arrival run and retires the clone when the run
	// completes, so reusing it makes forks allocation-free after the
	// first. dst must not be in use.
	CloneInto(dst Machine) Machine
}

// Plan is an isolated view of future availability. EarliestStart and
// Commit let schedulers build tentative schedules (reservations, window
// permutations, backfill checks) without touching the machine.
//
// A Plan is valid for a single scheduling pass at the instant it was
// created; it must be re-obtained after simulated time advances.
type Plan interface {
	// Now is the instant the plan was created.
	Now() units.Time

	// EarliestStart returns the earliest t >= Now() at which a job of
	// the given size could run for walltime without displacing running
	// jobs or prior commitments, together with a placement hint to pass
	// to Commit or Machine.TryStartAt. When the request can never fit it
	// returns (units.Forever, -1).
	EarliestStart(nodes int, walltime units.Duration) (units.Time, int)

	// StartableNow answers exactly whether EarliestStart would return
	// Now(), with the identical hint when it would. It exists because
	// the answer is often decidable from the machine's occupancy alone
	// — without walking the full availability profile — and backfill
	// screens ("does anything in this window fit right now?") are the
	// hottest probe in a scheduling pass.
	StartableNow(nodes int, walltime units.Duration) (int, bool)

	// FreeNow returns an upper bound on the total nodes that requests
	// of at least nodes nodes can hold when they all start at Now(),
	// side by side, given the plan's commitments. Commitments only
	// accumulate, so the bound holds for every later state of the plan
	// too. A bound that is too low is unsound: the window search cuts
	// on it. The flat plan answers the nodes available at Now(); the
	// torus its cells free at Now() at full size; the partition the
	// aligned blocks of the request's width that are free at Now()
	// (overdue midplanes included), at full size, or the whole free
	// capacity when every midplane is free, because the full-system
	// partition of a machine whose midplane count is not a power of two
	// is not a union of aligned blocks.
	FreeNow(nodes int) int

	// Commit reserves the placement returned by EarliestStart. Both the
	// start and the hint must come from EarliestStart with the same
	// size and walltime; committing an infeasible placement panics.
	Commit(nodes int, start units.Time, walltime units.Duration, hint int)

	// Independent reports whether two placements that EarliestStart
	// returned on the plan's current state cannot interact: their time
	// windows are disjoint, or the units they hold are (never claimed
	// by a plan without placement identity). Committing one then leaves
	// the other's EarliestStart answer, hint included, unchanged. Every
	// plan meets this because commitments only remove feasible
	// placements and EarliestStart returns the first feasible placement
	// in an order fixed for the plan's life: the independent commit
	// leaves the answer feasible and every placement ahead of it
	// infeasible. A false answer is always safe; a true one never is
	// for placements that overlap in units over a common instant. A
	// never-fits answer (Forever, -1) is never committed and lies after
	// every real placement's window, so it is independent of each.
	Independent(a, b Placement) bool

	// Save checkpoints the plan's commitment state and returns a mark
	// that Restore rewinds to. Marks nest LIFO with the call stack: a
	// mark may be restored any number of times (speculate, rewind,
	// speculate again), but restoring an outer mark invalidates every
	// mark taken after it. Save/Restore is the allocation-free
	// alternative to Clone for speculative probing: the window
	// permutation search and backfill legality checks bracket each
	// tentative Commit between a Save and a Restore instead of cloning
	// the whole plan.
	Save() PlanMark

	// Restore rewinds the plan to the state captured by a Save. The mark
	// stays valid for further restores; later marks are invalidated.
	Restore(m PlanMark)

	// Clone returns an independent copy (used when a speculative branch
	// must outlive the original plan; prefer Save/Restore for transient
	// probes).
	Clone() Plan
}

// PlanMark is an opaque checkpoint token returned by Plan.Save.
type PlanMark int

// Placement is one EarliestStart answer together with the request it
// answers: Nodes for Walltime from Start, at placement Hint.
type Placement struct {
	Nodes    int
	Start    units.Time
	Walltime units.Duration
	Hint     int
}

// End is the instant the placement's time window closes.
func (p Placement) End() units.Time { return p.Start.Add(p.Walltime) }

// timeDisjoint reports whether two placements' time windows
// [Start, End) share no instant.
func timeDisjoint(a, b Placement) bool {
	return a.End() <= b.Start || b.End() <= a.Start
}

// CloneMachineInto is src.CloneInto(dst). It remains for the
// benchmark's clone probe (machine.clone_into_ns), which calls it.
func CloneMachineInto(src, dst Machine) Machine { return src.CloneInto(dst) }

// PlanCloner is an optional Plan capability: CloneInto is Clone with
// buffer reuse. When dst is a retired plan of the same machine
// instance, the snapshot is copied into dst's backing arrays and dst is
// returned; otherwise a fresh clone is allocated, exactly as Clone
// would. dst must not be in use. No scheduler calls it since the
// parallel window search was deleted (DESIGN.md §7); it remains only
// because the frozen benchmarks/ tree still probes it
// (machine.plan_clone_ns), and the next benchmark PR removes both.
type PlanCloner interface {
	CloneInto(dst Plan) Plan
}

// PlanRecycler is an optional Machine capability: a machine that keeps
// a pool of retired planner objects accepts finished plans back through
// Recycle, so a scheduler that obtains one plan per pass reuses the
// same buffers every pass instead of re-allocating the availability
// snapshot each time. Recycling is strictly an optimization: callers
// may skip it (the plan is then garbage), but after handing a plan to
// Recycle they must not touch it again — the machine will reset and
// return it from a future Plan call. Plans from a different machine
// instance (a clone's plan offered to the original) are ignored.
// Partition is its one implementer. The pool pays: with a Recycle that
// drops the plan, BenchmarkSimAtScale (the Intrepid year under
// MetricAware(0.5, 5); -benchtime 5x -count 3, 2 vCPU Xeon, go1.24)
// went from 0.54–0.56 s, 30.9 MB and 658 allocations per op to
// 0.63–0.65 s, 148.5 MB and 361,411, because every pass then allocates
// a fresh release index (159 entries on Intrepid) and bitset.
type PlanRecycler interface {
	Recycle(Plan)
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	return 1 << uint(bits.Len(uint(n-1)))
}

// prevPow2 returns the largest power of two <= n (n >= 1).
func prevPow2(n int) int {
	return 1 << uint(bits.Len(uint(n))-1)
}
