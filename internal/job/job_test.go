package job

import (
	"strings"
	"testing"
	"unsafe"

	"amjs/internal/units"
)

func valid() *Job {
	return &Job{ID: 1, User: "u", Submit: 100, Nodes: 512, Walltime: 3600, Runtime: 1800}
}

func TestValidate(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Job)
		want   string
	}{
		{func(j *Job) { j.ID = 0 }, "non-positive ID"},
		{func(j *Job) { j.Nodes = 0 }, "node request"},
		{func(j *Job) { j.Walltime = 0 }, "walltime"},
		{func(j *Job) { j.Runtime = 0 }, "runtime"},
		{func(j *Job) { j.Runtime = j.Walltime + 1 }, "exceeds walltime"},
		{func(j *Job) { j.Submit = -5 }, "negative submit"},
	}
	for _, c := range cases {
		j := valid()
		c.mutate(j)
		err := j.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
}

func TestTimings(t *testing.T) {
	j := valid()
	j.Start = 400
	j.End = j.Start.Add(j.Runtime)
	if got := j.Wait(); got != 300 {
		t.Errorf("Wait = %v", got)
	}
	if got := j.WaitAt(250); got != 150 {
		t.Errorf("WaitAt = %v", got)
	}
	if got := j.Turnaround(); got != 300+1800 {
		t.Errorf("Turnaround = %v", got)
	}
	if got := j.NodeSeconds(); got != 512*1800 {
		t.Errorf("NodeSeconds = %v", got)
	}
}

func TestSlowdown(t *testing.T) {
	j := valid()
	j.Start = j.Submit.Add(1800) // wait 1800, runtime 1800 → slowdown 2
	if got := j.Slowdown(1); got != 2 {
		t.Errorf("Slowdown = %v, want 2", got)
	}
	// Bounded: short job, tau dominates.
	j.Runtime = 10
	j.Start = j.Submit.Add(90)
	if got := j.Slowdown(100); got != 1 {
		t.Errorf("bounded Slowdown = %v, want 1", got)
	}
	j.Runtime = 0
	if got := j.Slowdown(0); got != 0 {
		t.Errorf("degenerate Slowdown = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	j := valid()
	c := j.Clone()
	c.Start = 999
	c.State = Running
	if j.Start == 999 || j.State == Running {
		t.Error("Clone shares state with original")
	}
}

func TestCloneAllAndByID(t *testing.T) {
	a, b := valid(), valid()
	b.ID = 2
	clones := CloneAll([]*Job{a, b})
	if len(clones) != 2 || clones[0] == a || clones[1] == b {
		t.Fatal("CloneAll did not copy")
	}
	clones[0].Nodes = 7
	if a.Nodes == 7 {
		t.Error("CloneAll clone aliases original")
	}
	m := ByID([]*Job{a, b})
	if m[1] != a || m[2] != b {
		t.Error("ByID wrong")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Submitted: "submitted", Queued: "queued", Running: "running",
		Finished: "finished", Killed: "killed", State(42): "state(42)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestJobString(t *testing.T) {
	j := valid()
	s := j.String()
	for _, frag := range []string{"job 1", "nodes=512", "queued"} {
		if frag == "queued" {
			j.State = Queued
			s = j.String()
		}
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	_ = units.Time(0)
}

// A Job is one row of every engine table, fork arena and world copy:
// the engine's slot shares a word with State, so the row stays at 80
// bytes. A field that grows it grows every one of those.
func TestJobRowSize(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got != 80 {
		t.Errorf("a Job row takes %d bytes, want 80", got)
	}
}

// A table grows by one chunk, then three, then four at a time, hands
// released rows out again before it grows, stamps every row with its
// slot, and keeps its chunks through a Reset.
func TestTableReusesReleasedRows(t *testing.T) {
	var tab Table
	for i := 1; i <= ChunkRows+1; i++ {
		if r := tab.Add(&Job{ID: i}); int(r.Slot()) != i-1 || tab.At(r.Slot()) != r {
			t.Fatalf("row %d has slot %d", i, r.Slot())
		}
		if i == ChunkRows && tab.Cap() != ChunkRows {
			t.Fatalf("a full first chunk: the table holds %d rows, want %d", tab.Cap(), ChunkRows)
		}
	}
	if tab.Len() != ChunkRows+1 || tab.Cap() != 4*ChunkRows {
		t.Fatalf("Len/Cap %d/%d, want %d/%d", tab.Len(), tab.Cap(), ChunkRows+1, 4*ChunkRows)
	}
	tab.Release(3)
	if r := tab.Add(&Job{ID: 99}); r.Slot() != 3 || tab.At(3).ID != 99 || tab.Len() != ChunkRows+1 {
		t.Errorf("the released row was not reused: slot %d, Len %d", r.Slot(), tab.Len())
	}

	tab.Reset()
	for i := 0; i < 5; i++ {
		tab.Add(&Job{ID: 100 + i})
	}
	if tab.Len() != 5 || tab.Cap() != 4*ChunkRows || tab.At(4).ID != 104 || tab.At(4).Slot() != 4 {
		t.Errorf("a reset table hands out slots from 0 in its kept chunks: Len/Cap %d/%d, row 4 ID %d slot %d",
			tab.Len(), tab.Cap(), tab.At(4).ID, tab.At(4).Slot())
	}
}
