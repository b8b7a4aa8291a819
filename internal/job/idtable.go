package job

import (
	"fmt"
	"math"
)

// MaxID is the largest ID an IDTable holds: its domain is 1..MaxID.
const MaxID = math.MaxInt32

// idPageBits sets the ID table's page size: 1,024 IDs per page.
const idPageBits = 10

// IDTable maps job IDs to values of T without hashing. IDs live in
// pages of 1,024, and a page is allocated when the first ID in it is
// set, so page memory grows with the number of IDs set, not with the
// largest one. The directory costs one pointer per 1,024 IDs of range
// below the largest set ID: 16 MiB at the top of the domain. A lookup
// is two slice loads. An ID never set reads as T's zero value; the zero
// IDTable is empty and ready to use.
type IDTable[T any] struct {
	dir []*[1 << idPageBits]T // dir[id>>idPageBits]: nil until an ID in the page is set
}

// Get returns the value stored under id, or T's zero value when id was
// never set. Any int is a valid argument.
func (t *IDTable[T]) Get(id int) T {
	if p := id >> idPageBits; id > 0 && p < len(t.dir) && t.dir[p] != nil {
		return t.dir[p][id&(1<<idPageBits-1)]
	}
	var zero T
	return zero
}

// Set stores v under id, which must lie in 1..MaxID.
func (t *IDTable[T]) Set(id int, v T) {
	if id <= 0 || id > MaxID {
		panic(fmt.Sprintf("job: ID %d outside 1..%d", id, MaxID))
	}
	p := id >> idPageBits
	if p >= len(t.dir) {
		t.dir = append(t.dir, make([]*[1 << idPageBits]T, p+1-len(t.dir))...)
	}
	if t.dir[p] == nil {
		t.dir[p] = new([1 << idPageBits]T)
	}
	t.dir[p][id&(1<<idPageBits-1)] = v
}
