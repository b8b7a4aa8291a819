package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"amjs/internal/units"
)

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(30, 0, "c")
	q.Push(10, 0, "a")
	q.Push(20, 0, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it, ok := q.Pop()
		if !ok || it.Payload != w {
			t.Fatalf("Pop = %v,%v; want %q", it.Payload, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
}

func TestKindTieBreak(t *testing.T) {
	var q Queue[string]
	q.Push(10, 2, "arrival")
	q.Push(10, 1, "end")
	it, _ := q.Pop()
	if it.Payload != "end" {
		t.Fatalf("kind tie-break failed: got %q", it.Payload)
	}
}

func TestSeqStability(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, 0, i)
	}
	for i := 0; i < 100; i++ {
		it, _ := q.Pop()
		if it.Payload != i {
			t.Fatalf("insertion order not preserved: got %d at pop %d", it.Payload, i)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue[string]
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
	q.Push(5, 0, "x")
	it, ok := q.Peek()
	if !ok || it.Payload != "x" || q.Len() != 1 {
		t.Fatal("Peek wrong or consumed the event")
	}
}

func TestCloneIndependence(t *testing.T) {
	var q Queue[int]
	q.Push(1, 0, 10)
	q.Push(2, 0, 20)
	c := q.Clone()
	c.Pop()
	if q.Len() != 2 {
		t.Fatal("Clone shares heap with original")
	}
	c.Push(0, 0, 5)
	it, _ := c.Pop()
	if it.Payload != 5 {
		t.Fatal("clone heap broken after push")
	}
}

func TestPopSortedProperty(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue[int]
		for i, tt := range times {
			q.Push(units.Time(tt), 0, i)
		}
		got := make([]units.Time, 0, len(times))
		for {
			it, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, it.Time)
		}
		if len(got) != len(times) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
