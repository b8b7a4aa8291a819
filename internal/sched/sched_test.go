package sched_test

import (
	"reflect"
	"slices"
	"testing"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sched/schedtest"
	"amjs/internal/units"
)

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func TestOrders(t *testing.T) {
	// j1: old, long, small. j2: newer, short, large. j3: newest, medium.
	j1 := schedtest.J(1, 0, 10, 1000, 500)
	j2 := schedtest.J(2, 50, 80, 100, 50)
	j3 := schedtest.J(3, 90, 40, 500, 200)
	queue := []*job.Job{j1, j2, j3}
	now := units.Time(100)

	cases := []struct {
		name  string
		order sched.Order
		want  []int
	}{
		{"submit", sched.SubmitOrder, []int{1, 2, 3}},
		{"shortest", sched.ShortestFirst, []int{2, 3, 1}},
		{"longest", sched.LongestFirst, []int{1, 3, 2}},
		{"largest", sched.LargestFirst, []int{2, 3, 1}},
		{"smallest", sched.SmallestFirst, []int{1, 3, 2}},
		// Expansion factors at t=100: j1 (100+1000)/1000=1.1,
		// j2 (50+100)/100=1.5, j3 (10+500)/500=1.02.
		{"maxexpansion", sched.MaxExpansionFirst, []int{2, 1, 3}},
		// WFP at t=100: j1 (100/1000)^3*10=0.01, j2 (50/100)^3*80=10,
		// j3 (10/500)^3*40≈3e-4.
		{"wfp", sched.WFPOrder, []int{2, 1, 3}},
		// UNICEF at t=100: j1 100/(log2(11)*1000)≈0.029,
		// j2 50/(log2(81)*100)≈0.079, j3 10/(log2(41)*500)≈0.0037.
		{"unicef", sched.UNICEFOrder, []int{2, 1, 3}},
	}
	for _, c := range cases {
		got := ids(c.order(now, queue))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		// Input order must be untouched.
		if !reflect.DeepEqual(ids(queue), []int{1, 2, 3}) {
			t.Fatalf("%s mutated the queue", c.name)
		}
	}
}

// Every zoo order sorts a copy of the queue in place with its key
// evaluated inside the comparator: the copy is its only allocation.
func TestOrdersAllocateOnlyTheCopy(t *testing.T) {
	queue := make([]*job.Job, 64)
	for i := range queue {
		queue[i] = schedtest.J(i+1, units.Time(i*37%500), 1+i*13%64, units.Duration(60+i*71%900), 30)
	}
	for _, o := range sched.Orders() {
		if n := testing.AllocsPerRun(20, func() { o.Order(1000, queue) }); n != 1 {
			t.Errorf("%s: %v allocations per pass, want 1", o.Name, n)
		}
	}
}

func TestOrderTieBreaks(t *testing.T) {
	a := schedtest.J(2, 10, 5, 100, 50)
	b := schedtest.J(1, 10, 5, 100, 50)
	got := ids(sched.ShortestFirst(50, []*job.Job{a, b}))
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("tie-break by ID failed: %v", got)
	}
}

func TestFCFSBlocksAtHead(t *testing.T) {
	m := machine.NewFlat(100)
	big := schedtest.J(1, 0, 100, 100, 100) // head, too big once j0 runs
	small := schedtest.J(2, 1, 10, 100, 100)
	env := schedtest.New(m)
	// Occupy half the machine so the head cannot start.
	if _, ok := m.TryStart(99, 50, 0, 1000); !ok {
		t.Fatal("setup start failed")
	}
	env.Waiting = []*job.Job{big, small}
	sched.NewFCFS().Schedule(env)
	if len(env.Started) != 0 {
		t.Errorf("strict FCFS started %v past a blocked head", env.StartedIDs())
	}
	// Greedy first-fit starts the small one.
	env2 := schedtest.New(m.Clone(), big, small)
	sched.NewFirstFit().Schedule(env2)
	if !reflect.DeepEqual(env2.StartedIDs(), []int{2}) {
		t.Errorf("first-fit: %v, want [2]", env2.StartedIDs())
	}
}

func TestSJFandLJFOrdering(t *testing.T) {
	m := machine.NewFlat(100)
	long := schedtest.J(1, 0, 100, 1000, 900)
	short := schedtest.J(2, 5, 100, 10, 5)
	env := schedtest.New(m, long, short)
	sched.NewSJF().Schedule(env)
	if !reflect.DeepEqual(env.StartedIDs(), []int{2}) {
		t.Errorf("SJF started %v, want [2]", env.StartedIDs())
	}
	env2 := schedtest.New(machine.NewFlat(100), long.Clone(), short.Clone())
	env2.Waiting[0].State = job.Queued
	sched.NewLJF().Schedule(env2)
	if got := env2.StartedIDs(); len(got) != 1 || got[0] != 1 {
		t.Errorf("LJF started %v, want [1]", got)
	}
}

// The canonical EASY scenario: a blocked head job gets a reservation;
// a short job may jump it, a long one may not.
func TestEASYBackfillLegality(t *testing.T) {
	m := machine.NewFlat(100)
	env := schedtest.New(m)
	// Running: 60 nodes until t=100.
	if _, ok := m.TryStart(99, 60, 0, 100); !ok {
		t.Fatal("setup failed")
	}
	head := schedtest.J(1, 0, 80, 1000, 800)     // blocked; reserve at t=100
	fits := schedtest.J(2, 1, 20, 100, 80)       // 20 spare nodes now, ends at 100 ≤ shadow
	tooLong := schedtest.J(3, 2, 30, 5000, 4000) // would hold 30 nodes past t=100 → delays head
	env.Waiting = []*job.Job{head, fits, tooLong}
	sched.NewEASY().Schedule(env)
	if !reflect.DeepEqual(env.StartedIDs(), []int{2}) {
		t.Errorf("EASY started %v, want [2]", env.StartedIDs())
	}
	// Under the reservation (head takes 80 of 100), 20 "extra" nodes exist
	// but job 2 already took them; job 3 must wait.
	if head.State == job.Running || tooLong.State == job.Running {
		t.Error("blocked jobs were started")
	}
}

// EASY protects only the first reservation: a later queued job may be
// delayed by backfilling, which is what makes EASY unfair and
// distinguishes it from conservative.
func TestConservativeProtectsAllReservations(t *testing.T) {
	// Machine: 100 nodes; running 60 until t=100.
	mkEnv := func() (*schedtest.Env, []*job.Job) {
		m := machine.NewFlat(100)
		m.TryStart(99, 60, 0, 100)
		head := schedtest.J(1, 0, 80, 200, 150)   // reserved at 100
		second := schedtest.J(2, 1, 90, 200, 150) // reserved at 300 (after head)
		// Backfill candidate: 20 nodes for 350s. Under EASY it can start now
		// (doesn't delay head: head needs 80, idle at 100 will be
		// 100-20=80 until 350 — wait, candidate holds 20 nodes until 350,
		// at t=100 avail = 40+60-20 = 80 ≥ 80 → head fine. Second job's
		// reservation at 300 would be delayed to 350, which EASY permits
		// and conservative forbids.
		bf := schedtest.J(3, 2, 20, 350, 300)
		return schedtest.New(m, head, second, bf), []*job.Job{head, second, bf}
	}
	envE, _ := mkEnv()
	sched.NewEASY().Schedule(envE)
	if !reflect.DeepEqual(envE.StartedIDs(), []int{3}) {
		t.Errorf("EASY started %v, want [3]", envE.StartedIDs())
	}
	envC, _ := mkEnv()
	sched.NewConservative().Schedule(envC)
	if len(envC.Started) != 0 {
		t.Errorf("conservative started %v, want none", envC.StartedIDs())
	}
}

func TestEASYOnPartitionMachineRespectsReservedBlock(t *testing.T) {
	// 8 midplanes x 64 = 512 nodes. Running: [0,4) until t=100.
	m := machine.NewPartition(8, 64)
	if _, ok := m.TryStartAt(99, 256, 0, 100, 0); !ok {
		t.Fatal("setup failed")
	}
	env := schedtest.New(m)
	head := schedtest.J(1, 0, 512, 500, 400) // full machine; reserved at 100
	// Backfill candidate fits in [4,8) but runs past t=100 → would delay
	// the full-machine reservation.
	late := schedtest.J(2, 1, 256, 300, 250)
	// This one ends exactly at 100 → legal.
	fits := schedtest.J(3, 2, 256, 100, 90)
	env.Waiting = []*job.Job{head, late, fits}
	sched.NewEASY().Schedule(env)
	if !reflect.DeepEqual(env.StartedIDs(), []int{3}) {
		t.Errorf("partition EASY started %v, want [3]", env.StartedIDs())
	}
}

func TestWFPPrefersLongWaitedLarge(t *testing.T) {
	m := machine.NewFlat(100)
	env := schedtest.New(m)
	env.T = 1000
	old := schedtest.J(1, 0, 60, 100, 80)     // waited 1000
	fresh := schedtest.J(2, 990, 60, 100, 80) // waited 10
	env.Waiting = []*job.Job{fresh, old}
	sched.NewWFP().Schedule(env)
	if got := env.StartedIDs(); len(got) == 0 || got[0] != 1 {
		t.Errorf("WFP started %v, want job 1 first", got)
	}
}

// TestDynPSwitchesToSJFUnderBacklog: a long head job blocked until t=50
// and a shorter one that fits now but would delay it. FCFS reserves
// the head and starts nothing; SJF starts the shorter job, and its
// tentative schedule has the lower mean wait, so dynP must start what
// SJF with EASY backfilling starts.
func TestDynPSwitchesToSJFUnderBacklog(t *testing.T) {
	started := func(s sched.Scheduler) []int {
		m := machine.NewFlat(100)
		m.TryStart(99, 60, 0, 50) // 40 idle nodes until t=50
		long := schedtest.J(1, 0, 100, 10000, 9000)
		short := schedtest.J(2, 1, 40, 100, 80) // runs past t=50
		env := schedtest.New(m, long, short)
		env.T = 10
		s.Schedule(env)
		return env.StartedIDs()
	}
	fcfs := started(&sched.Reserving{Order: sched.SubmitOrder, Depth: 1})
	sjf := started(&sched.Reserving{Order: sched.ShortestFirst, Depth: 1})
	if slices.Equal(fcfs, sjf) {
		t.Fatalf("setup: FCFS and SJF both start %v", sjf)
	}
	if got := started(sched.NewDynP()); !slices.Equal(got, sjf) {
		t.Errorf("dynP started %v, want SJF's %v", got, sjf)
	}
}

func TestDynPEmptyQueueNoop(t *testing.T) {
	env := schedtest.New(machine.NewFlat(10))
	sched.NewDynP().Schedule(env) // must not panic
	if len(env.Started) != 0 {
		t.Error("started jobs from empty queue")
	}
}

func TestCloneIndependence(t *testing.T) {
	scheds := []sched.Scheduler{
		sched.NewFCFS(), sched.NewSJF(), sched.NewLJF(), sched.NewFirstFit(),
		sched.NewEASY(), sched.NewConservative(), sched.NewWFP(), sched.NewDynP(),
		sched.NewUNICEF(), sched.NewLargest(), sched.NewSmallest(),
	}
	for _, s := range scheds {
		c := s.Clone()
		if c == nil || c.Name() != s.Name() {
			t.Errorf("%s: bad clone", s.Name())
		}
		if reflect.ValueOf(c).Pointer() == reflect.ValueOf(s).Pointer() {
			t.Errorf("%s: clone aliases original", s.Name())
		}
	}
}

func TestSchedulersHandleEmptyQueue(t *testing.T) {
	for _, s := range []sched.Scheduler{
		sched.NewFCFS(), sched.NewEASY(), sched.NewConservative(), sched.NewWFP(),
	} {
		env := schedtest.New(machine.NewFlat(10))
		s.Schedule(env) // must not panic
	}
}
