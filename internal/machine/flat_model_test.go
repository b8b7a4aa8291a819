package machine

import (
	"slices"
	"testing"

	"amjs/internal/rng"
	"amjs/internal/units"
)

// flatRef is the map-backed reference for Flat's allocation table: one
// entry per live handle, no slot reuse, no sort buffer.
type flatRef struct {
	total  int
	allocs map[Alloc]flatAlloc
}

func (r *flatRef) busy() int {
	n := 0
	for _, a := range r.allocs {
		n += a.nodes
	}
	return n
}

func (r *flatRef) clone() *flatRef {
	c := &flatRef{total: r.total, allocs: make(map[Alloc]flatAlloc, len(r.allocs))}
	for h, a := range r.allocs {
		c.allocs[h] = a
	}
	return c
}

// plan is the availability step function built the way a per-call map
// of end times to freed nodes builds it.
func (r *flatRef) plan(now units.Time) (times []units.Time, avail []int) {
	byEnd := make(map[units.Time]int)
	var ends []units.Time
	for _, a := range r.allocs {
		e := max(a.expEnd, now)
		if _, seen := byEnd[e]; !seen {
			ends = append(ends, e)
		}
		byEnd[e] += a.nodes
	}
	slices.Sort(ends)
	cur := r.total - r.busy()
	times, avail = []units.Time{now}, []int{cur}
	for _, e := range ends {
		cur += byEnd[e]
		if e == now {
			avail[0] = cur
			continue
		}
		times = append(times, e)
		avail = append(avail, cur)
	}
	return times, avail
}

// Random TryStart/Release/Clone/CloneInto/Plan sequences over a family
// of machines (the original and its clones) must agree with the
// map-backed reference after every operation: the same counts, the
// same plan step function, and clones that never see each other's
// later mutations.
func TestFlatTableMatchesMapModel(t *testing.T) {
	const total = 64
	for seed := int64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		ms := []*Flat{NewFlat(total)}
		refs := []*flatRef{{total: total, allocs: map[Alloc]flatAlloc{}}}
		now := units.Time(0)
		for step := 0; step < 400; step++ {
			i := r.Intn(len(ms))
			m, ref := ms[i], refs[i]
			switch op := r.Intn(10); {
			case op < 4:
				nodes := 1 + r.Intn(total/4)
				wall := units.Duration(1 + r.Intn(50))
				h, ok := m.TryStart(step, nodes, now, wall)
				if want := nodes <= total-ref.busy(); ok != want {
					t.Fatalf("seed %d step %d: TryStart(%d) = %v, want %v", seed, step, nodes, ok, want)
				}
				if ok {
					if _, live := ref.allocs[h]; live || h == NoAlloc {
						t.Fatalf("seed %d step %d: TryStart returned live or null handle %d", seed, step, h)
					}
					ref.allocs[h] = flatAlloc{jobID: step, nodes: nodes, expEnd: now.Add(wall)}
				}
			case op < 7:
				if len(ref.allocs) == 0 {
					continue
				}
				hs := make([]Alloc, 0, len(ref.allocs))
				for h := range ref.allocs {
					hs = append(hs, h)
				}
				slices.Sort(hs)
				h := hs[r.Intn(len(hs))]
				m.Release(h, now)
				delete(ref.allocs, h)
			case op == 7:
				ms = append(ms, m.Clone().(*Flat))
				refs = append(refs, ref.clone())
			case op == 8:
				j := r.Intn(len(ms))
				if j == i {
					continue
				}
				if got := m.CloneInto(ms[j]); got != ms[j] {
					t.Fatalf("seed %d step %d: CloneInto did not reuse its same-size target", seed, step)
				}
				refs[j] = ref.clone()
			default:
				now = now.Add(units.Duration(r.Intn(20)))
			}
			for k := range ms {
				checkFlatAgainstRef(t, ms[k], refs[k], now)
			}
		}
	}
}

func checkFlatAgainstRef(t *testing.T, m *Flat, ref *flatRef, now units.Time) {
	t.Helper()
	busy := ref.busy()
	if m.BusyNodes() != busy || m.UsedNodes() != busy || m.IdleNodes() != ref.total-busy ||
		m.RunningCount() != len(ref.allocs) {
		t.Fatalf("counts busy=%d used=%d idle=%d running=%d, reference busy=%d running=%d",
			m.BusyNodes(), m.UsedNodes(), m.IdleNodes(), m.RunningCount(), busy, len(ref.allocs))
	}
	p := m.Plan(now).(*flatPlan)
	times, avail := ref.plan(now)
	if !slices.Equal(p.times, times) || !slices.Equal(p.avail, avail) {
		t.Fatalf("plan at %v: times %v avail %v, reference times %v avail %v",
			now, p.times, p.avail, times, avail)
	}
}

// Releasing a handle twice, a handle never issued, or the null handle
// panics, as the map-backed table did; a recycled handle is valid again
// once TryStart reissues it.
func TestFlatReleaseInvalidHandlePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	m := NewFlat(10)
	a, _ := m.TryStart(1, 2, 0, 10)
	b, _ := m.TryStart(2, 2, 0, 10)
	m.Release(a, 5)
	mustPanic("double release", func() { m.Release(a, 5) })
	mustPanic("never-issued handle", func() { m.Release(b+1, 5) })
	mustPanic("null handle", func() { m.Release(NoAlloc, 5) })
	c, _ := m.TryStart(3, 4, 5, 10)
	if c != a {
		t.Fatalf("freed handle %d not recycled (got %d)", a, c)
	}
	m.Release(c, 6)
	m.Release(b, 6)
	if m.BusyNodes() != 0 || m.RunningCount() != 0 {
		t.Fatalf("machine not drained: busy=%d running=%d", m.BusyNodes(), m.RunningCount())
	}
}

// A CloneInto target shares no storage with its source: mutating either
// afterwards leaves the other untouched.
func TestFlatCloneIntoIndependent(t *testing.T) {
	src, dst := NewFlat(20), NewFlat(20)
	a, _ := src.TryStart(1, 5, 0, 100)
	dst.TryStart(9, 7, 0, 100) // stale content the copy must overwrite
	if src.CloneInto(dst) != dst {
		t.Fatal("CloneInto did not reuse its target")
	}
	b, _ := dst.TryStart(2, 3, 0, 50)
	src.Release(a, 10)
	if src.BusyNodes() != 0 || src.RunningCount() != 0 {
		t.Errorf("source saw the target's start: busy=%d running=%d", src.BusyNodes(), src.RunningCount())
	}
	if dst.BusyNodes() != 8 || dst.RunningCount() != 2 {
		t.Errorf("target saw the source's release: busy=%d running=%d", dst.BusyNodes(), dst.RunningCount())
	}
	dst.Release(a, 10)
	dst.Release(b, 10)
	if dst.BusyNodes() != 0 {
		t.Errorf("target not drained: busy=%d", dst.BusyNodes())
	}
}
