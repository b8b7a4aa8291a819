package job

// ChunkBits sets a Table's chunk size: 256 rows (20 KiB) to a chunk,
// small enough that a stream holding a few hundred jobs in flight
// does not pay for a thousand rows.
const ChunkBits = 8

// ChunkRows is the number of rows in a full Table chunk.
const ChunkRows = 1 << ChunkBits

// Table holds Job rows addressed by int32 slots: the simulation
// engine's one store of the jobs it holds. Row s is row s&(ChunkRows-1)
// of chunk s>>ChunkBits, and a chunk never moves, so a row's address
// stays valid for as long as the table holds it. Every row knows its
// own slot (Job.Slot): that is how a *Job a scheduler hands back finds
// its way to the engine's slot-indexed state.
//
// A table grows by chunks (see grow) and reuses released rows, last
// released first, before it grows. Reset empties it but keeps its
// chunks, so a caller that refills it again and again (a world fork)
// allocates nothing once it has grown to its largest fill.
type Table struct {
	chunks [][]Job // each holds ChunkRows rows
	rows   int32   // rows the chunks hold
	n      int32   // slots handed out: 0..n-1
	free   []int32 // released slots
}

// Add copies src into a free row and returns the row.
func (t *Table) Add(src *Job) *Job {
	var s int32
	if k := len(t.free); k > 0 {
		s, t.free = t.free[k-1], t.free[:k-1]
	} else {
		if t.n == t.rows {
			t.grow()
		}
		s = t.n
		t.n++
	}
	r := &t.chunks[s>>ChunkBits][s&(ChunkRows-1)]
	*r = *src
	r.slot = s
	return r
}

// grow adds chunks to the table. The first comes alone, so that a
// table holding a few hundred jobs stays small; the next three come
// together, and after them four at a time. A lone chunk,
// which holds pointers, carries a malloc header that rounds it up to
// the next size class, 6 % more; three or four make one page-aligned
// large object that wastes nothing.
func (t *Table) grow() {
	k := 4 - len(t.chunks)%4
	if len(t.chunks) == 0 {
		k = 1
	}
	rows := make([]Job, k*ChunkRows)
	for lo := 0; lo < len(rows); lo += ChunkRows {
		t.chunks = append(t.chunks, rows[lo:lo+ChunkRows:lo+ChunkRows])
	}
	t.rows += int32(len(rows))
}

// At returns row s.
func (t *Table) At(s int32) *Job { return &t.chunks[s>>ChunkBits][s&(ChunkRows-1)] }

// Chunk returns chunk c, rows c<<ChunkBits onwards: a caller resolving
// many slots in increasing order looks a chunk up once, not per slot.
func (t *Table) Chunk(c int) []Job { return t.chunks[c] }

// Release returns row s to the table for reuse by a later Add. The
// caller must hold no other reference to it.
func (t *Table) Release(s int32) { t.free = append(t.free, s) }

// Released returns the slots released and not yet reused, as a view
// valid until the table next changes.
func (t *Table) Released() []int32 { return t.free }

// Len reports the slots handed out, released ones included: every slot
// is below it.
func (t *Table) Len() int { return int(t.n) }

// Cap reports the rows the table holds.
func (t *Table) Cap() int { return int(t.rows) }

// Reset empties the table, keeping its chunks for the next Adds, which
// hand out slots from 0 again.
func (t *Table) Reset() {
	t.n = 0
	t.free = t.free[:0]
}
