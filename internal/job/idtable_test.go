package job

import (
	"math"
	"testing"
)

// TestIDTable: set IDs read back across pages, and any other int, in
// or out of the domain, reads as the zero value without allocating a
// page.
func TestIDTable(t *testing.T) {
	var tab IDTable[int]
	ids := []int{1, 1023, 1024, 1025, 5000, MaxID}
	for _, id := range ids {
		tab.Set(id, id*2)
	}
	for _, id := range ids {
		if got := tab.Get(id); got != id*2 {
			t.Errorf("Get(%d) = %d, want %d", id, got, id*2)
		}
	}
	for _, id := range []int{math.MinInt, -1, 0, 2, 2048, 1 << 20, MaxID - 1, MaxID + 1, math.MaxInt} {
		if got := tab.Get(id); got != 0 {
			t.Errorf("Get(%d) = %d, want 0", id, got)
		}
	}
	pages := 0
	for _, p := range tab.dir {
		if p != nil {
			pages++
		}
	}
	if pages != 4 {
		t.Errorf("%d pages allocated, want 4", pages)
	}
	for _, id := range []int{0, -5, MaxID + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", id)
				}
			}()
			tab.Set(id, 1)
		}()
	}
}
