package sim

import (
	"fmt"
	"maps"
	"testing"

	"amjs/internal/core"
	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// forkParent drives a Live session through one contended scheduling
// pass and returns its engine together with the queue as that pass saw
// it and the starts the pass performed — the (queueView, begun) pair
// the oracle forks a diverged batch from. On an n-node machine: job 1
// owns every node until t=100; jobs 2, 3 (a quarter each) and 5 (a
// quarter, short enough to backfill) start in the pass at t=100; job 4
// (whole machine) and job 6 (half) stay queued behind them.
func forkParent(t *testing.T, m machine.Machine, s sched.Scheduler, period units.Duration) (*engine, []*job.Job, []passBegin) {
	t.Helper()
	l, err := NewLive(Config{Machine: m, Scheduler: s, SchedulePeriod: period, Paranoid: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	n := m.TotalNodes()
	for _, j := range []*job.Job{
		{ID: 1, User: "a", Submit: 0, Nodes: n, Walltime: 100, Runtime: 100},
		{ID: 2, User: "b", Submit: 10, Nodes: n / 4, Walltime: 300, Runtime: 300},
		{ID: 3, User: "c", Submit: 20, Nodes: n / 4, Walltime: 300, Runtime: 200},
		{ID: 4, User: "d", Submit: 30, Nodes: n, Walltime: 100, Runtime: 100},
		{ID: 5, User: "e", Submit: 40, Nodes: n / 4, Walltime: 200, Runtime: 200},
		{ID: 6, User: "f", Submit: 50, Nodes: n / 2, Walltime: 500, Runtime: 500},
	} {
		if _, err := l.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AdvanceTo(99); err != nil {
		t.Fatal(err)
	}
	pre := l.Queue()
	if err := l.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	var begun []passBegin
	for _, j := range pre {
		if j.State == job.Running {
			a, _ := l.e.running.alloc(j.Slot())
			begun = append(begun, passBegin{j, a})
		}
	}
	if ids(pre) != "[2 3 4 5 6]" || len(begun) != 3 || ids(l.e.queue.jobs()) != "[4 6]" {
		t.Fatalf("setup: pre-pass queue %s, %d starts, queue %s", ids(pre), len(begun), ids(l.e.queue.jobs()))
	}
	return l.e, pre, begun
}

// runningByID returns e's running set as job ID → allocation.
func runningByID(e *engine) map[int]machine.Alloc {
	m := map[int]machine.Alloc{}
	for i, s := range e.running.slots {
		m[e.table.At(s).ID] = e.running.allocs[i]
	}
	return m
}

// ids renders a job list's IDs in order, e.g. "[4 6]".
func ids(jobs []*job.Job) string {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return fmt.Sprint(out)
}

// TestWorldFork exercises the one closed-world fork primitive directly,
// over both fork sources the oracle and the tuner use (the live state,
// and a pre-pass snapshot with the pass's starts rewound), with and
// without a submit-time cutoff, in both engine cadences.
func TestWorldFork(t *testing.T) {
	parents := []struct {
		name   string
		m      func() machine.Machine
		s      func() sched.Scheduler
		period units.Duration
	}{
		{"flat-easy-event", func() machine.Machine { return machine.NewFlat(16) },
			func() sched.Scheduler { return sched.NewEASY() }, 0},
		{"partition-metricaware-periodic", func() machine.Machine { return machine.NewPartition(8, 64) },
			func() sched.Scheduler { return core.NewMetricAware(1, 1) }, 10 * units.Second}, // = EASY, with scratch to adopt
	}
	forks := []struct {
		name      string
		snapshot  bool       // fork from the pre-pass snapshot, rewinding the pass's starts
		cutoff    units.Time // jobs submitted later are extras
		wantQueue string     // the fork's queue
		wantRun   int        // the fork's running-set size
	}{
		{"live", false, units.Forever, "[4 6]", 3},
		{"live-cutoff", false, 30, "[4]", 3},
		{"snapshot", true, units.Forever, "[2 3 4 5 6]", 0},
		{"snapshot-cutoff", true, 20, "[2 3]", 0},
	}
	for _, p := range parents {
		for _, f := range forks {
			t.Run(p.name+"/"+f.name, func(t *testing.T) {
				e, pre, begun := forkParent(t, p.m(), p.s(), p.period)
				view := e.queue.jobs()
				if f.snapshot {
					view = pre
				} else {
					begun = nil
				}

				// The parent as it stands, to prove the fork left it alone.
				busy, used, idle := e.machine.BusyNodes(), e.machine.UsedNodes(), e.machine.IdleNodes()
				queue := ids(e.queue.jobs())
				running := runningByID(e)
				fields := map[*job.Job]job.Job{}
				for _, j := range pre {
					fields[j] = *j
				}

				var w world
				forkAndRun := func() [32]byte {
					sub := w.fork(e, e.scheduler, view, f.cutoff, begun)
					w.armGrids(e.now, e.nextCheck, true)

					// (b) the cutoff filters exactly the later submissions.
					if got := ids(sub.queue.jobs()); got != f.wantQueue {
						t.Fatalf("fork queue %s, want %s", got, f.wantQueue)
					}
					// (c) a begun job waits again, and its nodes are free.
					for _, c := range sub.queue.jobs() {
						if c.State != job.Queued || c.Start != 0 {
							t.Errorf("fork job %d is %v with start %v, want queued at 0", c.ID, c.State, c.Start)
						}
					}
					freed := 0
					for _, pb := range begun {
						freed += pb.j.Nodes
					}
					if got := sub.machine.BusyNodes(); got != busy-freed || sub.running.len() != f.wantRun {
						t.Errorf("fork has %d busy nodes and %d running jobs, want %d and %d",
							got, sub.running.len(), busy-freed, f.wantRun)
					}

					if err := sub.run(nil); err != nil {
						t.Fatal(err)
					}
					res := &Result{}
					for s := range int32(sub.table.Len()) {
						c := sub.table.At(s)
						if c.State != job.Finished {
							t.Errorf("fork job %d ended the run %v", c.ID, c.State)
						}
						res.Jobs = append(res.Jobs, c)
					}
					return scheduleHash(res)
				}
				first := forkAndRun()

				// (a) a fork run to completion leaves the parent untouched.
				if b, u, i := e.machine.BusyNodes(), e.machine.UsedNodes(), e.machine.IdleNodes(); b != busy || u != used || i != idle {
					t.Errorf("parent machine busy/used/idle %d/%d/%d, was %d/%d/%d", b, u, i, busy, used, idle)
				}
				if got := ids(e.queue.jobs()); got != queue {
					t.Errorf("parent queue %s, was %s", got, queue)
				}
				if now := runningByID(e); !maps.Equal(now, running) {
					t.Errorf("parent running set %v, was %v", now, running)
				}
				for j, was := range fields {
					if *j != was {
						t.Errorf("parent job %d is %+v, was %+v", j.ID, *j, was)
					}
				}

				// (d) the world is reusable: the same fork again gives the
				// same schedule, and once warm a fork allocates nothing
				// beyond a plain scheduler clone — nothing at all for a
				// policy that clones into the previous fork's retired one.
				if forkAndRun() != first {
					t.Error("re-fork from the same parent state scheduled differently")
				}
				want := 0.0
				if _, ok := e.scheduler.(inPlaceCloner); !ok {
					want = testing.AllocsPerRun(50, func() { _ = e.scheduler.Clone() })
				}
				fork := testing.AllocsPerRun(50, func() {
					w.fork(e, e.scheduler, view, f.cutoff, begun)
					w.armGrids(e.now, e.nextCheck, true)
				})
				if fork > want {
					t.Errorf("a warm fork allocates %v objects, want %v", fork, want)
				}
				if w.sub.scheduler == e.scheduler || w.sub.collector != nil {
					t.Error("the fork shares the parent's scheduler or collector")
				}
			})
		}
	}
}
