package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"amjs/internal/units"
)

// TestReleaseIndexMatchesRecomputation drives seeded start/release
// sequences and, after every step, recomputes the release index from
// scratch: the per-midplane estimates from the allocation table, every
// other width class as the maximum over its block's midplanes, and the
// overdue flag of a plan as "some busy midplane's estimate is at or
// before now". The geometries cover Intrepid (80 midplanes: a
// full-system class beside the power-of-two ones), a power-of-two row
// (no full-system class), and a row whose midplane count and
// nodes-per-midplane are both not powers of two (BlockMidplanes divides
// there instead of shifting). Some jobs start in the past so that their
// estimates fall due: the overdue flag then has both answers to give.
func TestReleaseIndexMatchesRecomputation(t *testing.T) {
	for _, g := range []struct{ midplanes, perMP int }{{80, 512}, {64, 512}, {24, 100}} {
		t.Run(fmt.Sprintf("%dx%d", g.midplanes, g.perMP), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(g.midplanes)))
			p := NewPartition(g.midplanes, g.perMP)
			var live []Alloc
			now := units.Time(1000)
			starts, releases, overdue := 0, 0, 0
			for step := range 3000 {
				now += units.Time(r.Intn(40))
				if len(live) > 0 && r.Intn(5) < 2 {
					i := r.Intn(len(live))
					p.Release(live[i], now)
					live = append(live[:i], live[i+1:]...)
					releases++
				} else {
					nodes := randomRequest(r, p)
					width := p.BlockMidplanes(nodes)
					at := now - units.Time(r.Intn(300))
					wall := units.Duration(1 + r.Intn(1000))
					var a Alloc
					ok := false
					if r.Intn(2) == 0 {
						a, ok = p.TryStart(step, nodes, at, wall)
					} else {
						a, ok = p.TryStartAt(step, nodes, at, wall, r.Intn(p.midplanes/width)*width)
					}
					if ok {
						live = append(live, a)
						starts++
					}
				}
				checkReleaseIndex(t, p, step)
				for _, at := range []units.Time{now, now - 150, now + 150} {
					pl := p.Plan(at).(*partPlan)
					want := false
					for i, e := range p.rel[:p.midplanes] {
						want = want || p.midplaneBusy(i) && e <= at
					}
					if pl.overdue != want {
						t.Fatalf("step %d: plan at %v: overdue %v, recomputed %v", step, at, pl.overdue, want)
					}
					if want {
						overdue++
					}
					p.Recycle(pl)
				}
			}
			if starts < 300 || releases < 300 || overdue == 0 {
				t.Fatalf("the sequence tests too little: %d starts, %d releases, %d overdue plans",
					starts, releases, overdue)
			}
		})
	}
}

// randomRequest draws a node count whose block is any width class,
// the full-system partition included.
func randomRequest(r *rand.Rand, p *Partition) int {
	var widths []int
	for w := 1; w <= p.maxPow2; w <<= 1 {
		widths = append(widths, w)
	}
	if p.midplanes != p.maxPow2 {
		widths = append(widths, p.midplanes)
	}
	w := widths[r.Intn(len(widths))]
	return w*p.perMP - r.Intn(p.perMP)
}

// checkReleaseIndex compares every index entry with its recomputation.
func checkReleaseIndex(t *testing.T, p *Partition, step int) {
	t.Helper()
	mid := make([]units.Time, p.midplanes)
	for i := range mid {
		mid[i] = idleRelease
		if p.midplaneBusy(i) {
			mid[i] = p.allocEndAt(i)
		}
	}
	blockMax := func(lo, hi int) units.Time {
		v := idleRelease
		for _, e := range mid[lo:hi] {
			v = max(v, e)
		}
		return v
	}
	at := 0
	for w := 1; w <= p.maxPow2; w <<= 1 {
		for b := 0; (b+1)*w <= p.midplanes; b++ {
			if got, want := p.rel[at], blockMax(b*w, (b+1)*w); got != want {
				t.Fatalf("step %d: width %d block %d: index %v, recomputed %v", step, w, b, got, want)
			}
			at++
		}
	}
	if p.midplanes != p.maxPow2 {
		if got, want := p.rel[at], blockMax(0, p.midplanes); got != want {
			t.Fatalf("step %d: full-system block: index %v, recomputed %v", step, got, want)
		}
		at++
	}
	if at != len(p.rel) {
		t.Fatalf("step %d: index holds %d entries, the geometry %d", step, len(p.rel), at)
	}
}

// TestPlanIgnoresLaterStartsAndReleases pins the plan's snapshot
// semantics: a plan built before a TryStartAt or a Release answers
// every probe as if neither had happened, and a pass's pattern — start
// the job on the machine at the plan's hint, then Commit that start
// into the plan — never panics.
func TestPlanIgnoresLaterStartsAndReleases(t *testing.T) {
	const now = units.Time(500)
	for _, g := range []struct{ midplanes, perMP int }{{80, 512}, {64, 512}, {24, 100}} {
		r := rand.New(rand.NewSource(3))
		for trial := range 200 {
			p := NewPartition(g.midplanes, g.perMP)
			var live []Alloc
			for i := r.Intn(8); i > 0; i-- {
				if a, ok := p.TryStart(i, randomRequest(r, p), now-units.Time(r.Intn(100)), units.Duration(1+r.Intn(400))); ok {
					live = append(live, a)
				}
			}
			pl := p.Plan(now)
			witness := p.Clone().Plan(now)
			if len(live) > 0 && r.Intn(2) == 0 {
				p.Release(live[r.Intn(len(live))], now)
			}
			for id := 100; id < 106; id++ {
				nodes, wall := randomRequest(r, p), units.Duration(1+r.Intn(400))
				ts, hint := pl.EarliestStart(nodes, wall)
				wts, whint := witness.EarliestStart(nodes, wall)
				h, ok := pl.StartableNow(nodes, wall)
				wh, wok := witness.StartableNow(nodes, wall)
				if ts != wts || hint != whint || h != wh || ok != wok {
					t.Fatalf("%dx%d trial %d: %d nodes: plan answers (%v, %d) / (%d, %v), snapshot (%v, %d) / (%d, %v)",
						g.midplanes, g.perMP, trial, nodes, ts, hint, h, ok, wts, whint, wh, wok)
				}
				if ts != now {
					continue
				}
				if _, started := p.TryStartAt(id, nodes, now, wall, hint); !started {
					continue // the block was freed or taken behind the plan's back
				}
				pl.Commit(nodes, now, wall, hint)
				witness.Commit(nodes, now, wall, hint)
			}
		}
	}
}
