package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"amjs/internal/eventq"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/rng"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// Random interleavings of end/tick/checkpoint pushes, nondecreasing
// arrivals, peeks, pops and resets must come out of the merged queue in
// exactly the order one eventq.Queue holding every event gives — same
// instant ties across all four kinds included.
func TestEventQueueMatchesSingleHeap(t *testing.T) {
	heapKinds := []int32{evEnd, evTick, evCheckpoint}
	for seed := int64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		var tab job.Table
		got := eventQueue{tab: &tab}
		var want eventq.Queue[int32]
		var clock, lastArrival units.Time // pops never go back; arrivals never do
		id := 0
		for step := 0; step < 600; step++ {
			switch op := r.Intn(20); {
			case op < 6:
				id++
				tm := clock.Add(units.Duration(r.Intn(4)))
				kind := heapKinds[r.Intn(len(heapKinds))]
				got.Push(tm, kind, int32(id))
				want.Push(tm, kind, int32(id))
			case op < 12:
				id++
				lastArrival = max(lastArrival, clock).Add(units.Duration(r.Intn(2)))
				s := tab.Add(&job.Job{ID: id, Submit: lastArrival}).Slot()
				got.PushArrival(s)
				want.Push(lastArrival, evArrive, s)
			case op < 19:
				g, gok := got.Peek()
				w, wok := want.Peek()
				if !sameEvent(g, gok, w, wok) {
					t.Fatalf("seed %d step %d: Peek = %s, want %s", seed, step, describe(g, gok), describe(w, wok))
				}
				g, gok = got.Pop()
				w, wok = want.Pop()
				if !sameEvent(g, gok, w, wok) {
					t.Fatalf("seed %d step %d: Pop = %s, want %s", seed, step, describe(g, gok), describe(w, wok))
				}
				if gok {
					clock = g.Time
				}
			default:
				got.Reset()
				want.Reset()
				clock, lastArrival = 0, 0
			}
			if got.Len() != want.Len() {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, got.Len(), want.Len())
			}
		}
		for {
			g, gok := got.Pop()
			w, wok := want.Pop()
			if !sameEvent(g, gok, w, wok) {
				t.Fatalf("seed %d drain: Pop = %s, want %s", seed, describe(g, gok), describe(w, wok))
			}
			if !gok {
				break
			}
		}
	}
}

func sameEvent(g eventq.Item[int32], gok bool, w eventq.Item[int32], wok bool) bool {
	return gok == wok && (!gok || g.Time == w.Time && g.Kind == w.Kind && g.Payload == w.Payload)
}

func describe(it eventq.Item[int32], ok bool) string {
	if !ok {
		return "empty"
	}
	return fmt.Sprintf("(t=%v kind=%d job=%d)", it.Time, it.Kind, it.Payload)
}

// An arrival earlier than a pending one is a producer bug, and an
// arrival routed through Push would bypass the FIFO: both panic.
func TestEventQueueRejectsMisroutedArrivals(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("out-of-order arrival", func() {
		var tab job.Table
		q := eventQueue{tab: &tab}
		q.PushArrival(tab.Add(&job.Job{ID: 1, Submit: 10}).Slot())
		q.PushArrival(tab.Add(&job.Job{ID: 2, Submit: 9}).Slot())
	})
	mustPanic("arrival through Push", func() {
		var q eventQueue
		q.Push(10, evArrive, 1)
	})
}

// Run orders arrivals itself: a trace handed over shuffled schedules
// exactly as the same trace stably sorted by submit time, tie order
// included.
func TestRunShuffledTraceMatchesSorted(t *testing.T) {
	base := diffTrace(t, 7, 300)
	for _, j := range base {
		// Coarse submit instants, so many arrivals tie and the stable
		// order of the ties matters.
		j.Submit = j.Submit / 1800 * 1800
	}
	shuffled := slices.Clone(base)
	rng.New(7).Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, func(a, b *job.Job) int { return cmp.Compare(a.Submit, b.Submit) })
	if slices.Equal(shuffled, sorted) {
		t.Fatal("shuffle left the trace sorted")
	}
	// The validity trace logs every arrival in processing order, so it
	// pins the tie order even where the policy's own ordering hides it.
	runTraced := func(jobs []*job.Job) (*Result, []byte) {
		var trace bytes.Buffer
		res := run(t, Config{Machine: machine.NewFlat(512), Scheduler: sched.NewEASY(),
			Fairness: true, Paranoid: true, Trace: &trace}, jobs)
		return res, trace.Bytes()
	}
	a, aTrace := runTraced(shuffled)
	b, bTrace := runTraced(sorted)
	if scheduleHashByID(a) != scheduleHashByID(b) {
		t.Fatal("shuffled trace scheduled differently from the sorted trace")
	}
	if !bytes.Equal(aTrace, bTrace) {
		t.Error("shuffled trace processed events in a different order from the sorted trace")
	}
}

// Run hands back Result.Jobs and Result.Rejected in input order however
// it orders arrivals, and rejects an invalid job by its input index
// before it simulates anything.
func TestRunKeepsInputOrder(t *testing.T) {
	jobs := diffTrace(t, 11, 120)
	for i, j := range jobs {
		j.ID = 1000 + i // IDs unlike input positions
		j.Submit = j.Submit / 3600 * 3600
		if i%17 == 5 {
			j.Nodes = 4096 // never fits the 512-node machine
		}
	}
	rng.New(11).Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	var wantJobs, wantRejected []int
	for _, j := range jobs {
		if j.Nodes > 512 {
			wantRejected = append(wantRejected, j.ID)
		} else {
			wantJobs = append(wantJobs, j.ID)
		}
	}
	ids := func(js []*job.Job) []int {
		var out []int
		for _, j := range js {
			out = append(out, j.ID)
		}
		return out
	}
	cfg := Config{Machine: machine.NewFlat(512), Scheduler: sched.NewEASY(), Paranoid: true}
	res := run(t, cfg, jobs)
	if got := ids(res.Jobs); !slices.Equal(got, wantJobs) {
		t.Errorf("Result.Jobs IDs %v, want input order %v", got, wantJobs)
	}
	if got := ids(res.Rejected); len(wantRejected) == 0 || !slices.Equal(got, wantRejected) {
		t.Errorf("Result.Rejected IDs %v, want input order %v", got, wantRejected)
	}

	bad := slices.Clone(jobs)
	broken := *bad[7]
	broken.Runtime = broken.Walltime + 1
	bad[7] = &broken
	var trace bytes.Buffer
	cfg.Trace = &trace
	_, err := Run(cfg, bad)
	if err == nil || !strings.HasPrefix(err.Error(), "sim: job 7: ") {
		t.Errorf("invalid job at index 7: error %v, want one naming index 7", err)
	}
	if trace.Len() != 0 {
		t.Errorf("invalid trace simulated before failing:\n%s", trace.String())
	}
}

// scheduleHashByID is scheduleHash over the jobs in ID order, for
// results whose input orders differ.
func scheduleHashByID(res *Result) [32]byte {
	byID := *res
	byID.Jobs = slices.Clone(res.Jobs)
	slices.SortFunc(byID.Jobs, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	return scheduleHash(&byID)
}
