package machine

import (
	"testing"
	"testing/quick"

	"amjs/internal/units"
)

// bruteEarliest finds the earliest feasible start by scanning every
// second — the oracle the plans' profile/interval algorithms must
// match on small cases.
func bruteEarliest(canPlace func(t units.Time) bool, now units.Time, horizon units.Time) (units.Time, bool) {
	for t := now; t <= horizon; t++ {
		if canPlace(t) {
			return t, true
		}
	}
	return 0, false
}

// TestFlatPlanMatchesBruteForce compares flatPlan.EarliestStart against
// second-by-second scanning, and FreeNow against the nodes free at now,
// on randomized small machines, with and without commitments.
func TestFlatPlanMatchesBruteForce(t *testing.T) {
	f := func(running []uint8, commits []uint8, reqNodes, reqWall uint8) bool {
		const total = 16
		m := NewFlat(total)
		now := units.Time(10)
		if len(running) > 6 {
			running = running[:6]
		}
		if len(commits) > 4 {
			commits = commits[:4]
		}
		type span struct {
			nodes int
			from  units.Time
			to    units.Time
		}
		var spans []span
		for i, r := range running {
			nodes := 1 + int(r)%total
			wall := units.Duration(1 + r%50)
			if _, ok := m.TryStart(i, nodes, now, wall); ok {
				spans = append(spans, span{nodes, now, now.Add(wall)})
			}
		}
		plan := m.Plan(now)
		for _, c := range commits {
			nodes := 1 + int(c)%total
			wall := units.Duration(1 + c%40)
			ts, hint := plan.EarliestStart(nodes, wall)
			plan.Commit(nodes, ts, wall, hint)
			spans = append(spans, span{nodes, ts, ts.Add(wall)})
		}

		nodes := 1 + int(reqNodes)%total
		wall := units.Duration(1 + reqWall%40)
		got, _ := plan.EarliestStart(nodes, wall)
		free := total
		for _, s := range spans {
			if s.from <= now && now < s.to {
				free -= s.nodes
			}
		}
		if plan.FreeNow(nodes) != free {
			return false
		}

		canPlace := func(at units.Time) bool {
			for dt := units.Time(0); dt < units.Time(wall); dt++ {
				used := 0
				for _, s := range spans {
					if s.from <= at+dt && at+dt < s.to {
						used += s.nodes
					}
				}
				if used+nodes > total {
					return false
				}
			}
			return true
		}
		want, ok := bruteEarliest(canPlace, now, now+300)
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPartitionPlanMatchesBruteForce does the same for the partitioned
// machine: the oracle re-checks feasibility per aligned block per
// second, and the plan must also name the oracle's block (the lowest
// one feasible at the earliest start), answer StartableNow alike, and
// answer FreeNow with the free aligned blocks recounted midplane by
// midplane. The 4x8 machine fits one bitset word; the Intrepid geometry
// spans two, so there running jobs and commitments land on random
// aligned blocks (often at the 63/64 word boundary, which full-system
// commitments straddle), and some running jobs are overdue: busy on the
// machine but past their walltime estimate, so free in the profile. On
// 192x4, blocks of 128 midplanes span two words.
func TestPartitionPlanMatchesBruteForce(t *testing.T) {
	for _, c := range []struct {
		name             string
		m                func() *Partition
		running, commits int
		size             func(m *Partition, v uint8) int
		spread           bool
		checks           int
	}{
		{"4x8", func() *Partition { return NewPartition(4, 8) }, 5, 3,
			func(m *Partition, v uint8) int { return 1 + int(v)%m.TotalNodes() }, false, 40},
		{"80x512", NewIntrepid, 8, 5, intrepidSize, true, 300},
		{"192x4", func() *Partition { return NewPartition(192, 4) }, 8, 5, wideSize, true, 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := func(running []uint16, commits []uint16, reqNodes, reqWall uint8) bool {
				return checkPartitionPlan(t, c.m(), c.running, c.commits, c.size, c.spread, running, commits, reqNodes, reqWall)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: c.checks}); err != nil {
				t.Error(err)
			}
		})
	}
}

// intrepidSize maps a random byte to a request of every block width on
// the 80-midplane machine, the full-system partition included.
func intrepidSize(m *Partition, v uint8) int {
	widths := [...]int{1, 2, 4, 8, 16, 32, 64, 80}
	w := widths[int(v)%len(widths)]
	return w*m.NodesPerMidplane() - int(v)/8%(m.NodesPerMidplane()/2)
}

// wideSize maps a random byte to a request of every block width on a
// 192-midplane machine, where blocks of 128 span two bitset words and
// the full-system partition spans three.
func wideSize(m *Partition, v uint8) int {
	widths := [...]int{1, 2, 4, 8, 16, 32, 64, 128, 192}
	return widths[int(v)%len(widths)]*m.NodesPerMidplane() - int(v)/16%2
}

// checkPartitionPlan builds one random plan state on m and compares the
// plan's probes of one request with the brute-force oracle.
func checkPartitionPlan(t *testing.T, m *Partition, maxRunning, maxCommits int, size func(*Partition, uint8) int,
	spread bool, running, commits []uint16, reqNodes, reqWall uint8) bool {
	now := units.Time(50)
	if len(running) > maxRunning {
		running = running[:maxRunning]
	}
	if len(commits) > maxCommits {
		commits = commits[:maxCommits]
	}
	type span struct {
		start int // first midplane
		width int
		from  units.Time
		to    units.Time
	}
	var spans []span
	// place picks an aligned block for a width from a random byte: the
	// blocks either side of the 63/64 word boundary, or any block.
	place := func(width int, v uint8) int {
		blocks := m.Midplanes() / width
		if v%2 == 0 && 64+width <= m.Midplanes() {
			return 64 - width + int(v/2)%2*width
		}
		return int(v/2) % blocks * width
	}
	for i, r := range running {
		nodes := size(m, uint8(r))
		wall := units.Duration(1 + int(r>>8)%40)
		if !spread {
			if a, ok := m.TryStart(i, nodes, now, wall); ok {
				al := m.allocs[a]
				spans = append(spans, span{al.start, al.width, now, now.Add(wall)})
			}
			continue
		}
		// One in four starts early enough to be overdue at now.
		start := now
		if r>>8%4 == 0 {
			start = now - units.Time(wall) - units.Time(r>>10%3)
		}
		width := m.BlockMidplanes(nodes)
		if a, ok := m.TryStartAt(i, nodes, start, wall, place(width, uint8(r>>8))); ok {
			al := m.allocs[a]
			spans = append(spans, span{al.start, al.width, start, start.Add(wall)})
		}
	}
	busy := func(mp int, from, to units.Time) bool {
		for _, s := range spans {
			if mp >= s.start && mp < s.start+s.width && s.from < to && from < s.to {
				return true
			}
		}
		return false
	}
	// blockFree is the oracle: every midplane of the block free over
	// [at, at+wall), checked second by second.
	blockFree := func(bs, width int, at units.Time, wall units.Duration) bool {
		for mp := bs; mp < bs+width; mp++ {
			for dt := units.Time(0); dt < units.Time(wall); dt++ {
				if busy(mp, at+dt, at+dt+1) {
					return false
				}
			}
		}
		return true
	}
	// earliest returns the earliest start >= now of the request and the
	// lowest block feasible then. At now a block the machine holds idle
	// comes first: an overdue block is free in the profile, but a start
	// there fails until its job ends.
	earliest := func(nodes int, wall units.Duration) (units.Time, int) {
		width := m.BlockMidplanes(nodes)
		for bs := 0; bs+width <= m.Midplanes(); bs += width {
			if blockFreeNow(m.bits, bs, width) && blockFree(bs, width, now, wall) {
				return now, bs
			}
		}
		for at := now; at <= now+400; at++ {
			for bs := 0; bs+width <= m.Midplanes(); bs += width {
				if blockFree(bs, width, at, wall) {
					return at, bs
				}
			}
		}
		t.Fatalf("no feasible start for %d nodes within the horizon", nodes)
		return 0, 0
	}
	plan := m.Plan(now)
	for _, c := range commits {
		nodes := size(m, uint8(c))
		wall := units.Duration(1 + int(c>>8)%30)
		ts, hint := plan.EarliestStart(nodes, wall)
		if spread && c>>8%2 == 1 {
			// A commitment on a chosen block at that block's earliest
			// feasible start, as a window search's speculation makes.
			width := m.BlockMidplanes(nodes)
			hint = place(width, uint8(c>>8))
			for ts = now; !blockFree(hint, width, ts, wall); ts++ {
			}
		}
		plan.Commit(nodes, ts, wall, hint)
		spans = append(spans, span{hint, m.BlockMidplanes(nodes), ts, ts.Add(wall)})
	}

	nodes := size(m, reqNodes)
	wall := units.Duration(1 + int(reqWall)%30)
	want, wantHint := earliest(nodes, wall)
	got, hint := plan.EarliestStart(nodes, wall)
	nowHint, nowOK := plan.StartableNow(nodes, wall)
	if got != want || hint != wantHint {
		t.Logf("EarliestStart(%d, %v) = (%v, %d), oracle (%v, %d)", nodes, wall, got, hint, want, wantHint)
		return false
	}
	if nowOK != (want == now) || (nowOK && nowHint != wantHint) {
		t.Logf("StartableNow(%d, %v) = (%d, %v), oracle (%v, %d)", nodes, wall, nowHint, nowOK, want, wantHint)
		return false
	}
	// FreeNow: the aligned blocks of the width free at now, or the whole
	// machine when every midplane is.
	width := m.BlockMidplanes(nodes)
	blocks, all := 0, true
	for mp := 0; mp < m.Midplanes(); mp++ {
		all = all && !busy(mp, now, now+1)
	}
	for bs := 0; bs+width <= m.Midplanes(); bs += width {
		if blockFree(bs, width, now, 1) {
			blocks++
		}
	}
	wantFree := blocks * width * m.NodesPerMidplane()
	if all {
		wantFree = m.TotalNodes()
	} else if width != nextPow2(width) {
		wantFree = 0 // the full system of a non-power-of-two machine
	}
	if got := plan.FreeNow(nodes); got != wantFree {
		t.Logf("FreeNow(%d) = %d, oracle %d", nodes, got, wantFree)
		return false
	}
	return true
}

// TestTorusPlanMatchesBruteForce extends the oracle comparison to the
// 3-D torus: feasibility is re-derived per cuboid placement per second,
// and FreeNow must count the cells free at now.
func TestTorusPlanMatchesBruteForce(t *testing.T) {
	f := func(running []uint8, commits []uint8, reqNodes, reqWall uint8) bool {
		tr := NewTorus(2, 2, 2, 4) // 32 nodes, cells of 4
		now := units.Time(5)
		if len(running) > 4 {
			running = running[:4]
		}
		if len(commits) > 2 {
			commits = commits[:2]
		}
		type span struct {
			cells []int
			from  units.Time
			to    units.Time
		}
		var spans []span
		for i, r := range running {
			nodes := 1 + int(r)%tr.TotalNodes()
			wall := units.Duration(1 + r%30)
			if a, ok := tr.TryStart(i, nodes, now, wall); ok {
				spans = append(spans, span{tr.allocs[a].cells, now, now.Add(wall)})
			}
		}
		plan := tr.Plan(now)
		for _, c := range commits {
			nodes := 1 + int(c)%tr.TotalNodes()
			wall := units.Duration(1 + c%20)
			ts, hint := plan.EarliestStart(nodes, wall)
			plan.Commit(nodes, ts, wall, hint)
			spans = append(spans, span{tr.decodeHint(nodes, hint), ts, ts.Add(wall)})
		}

		nodes := 1 + int(reqNodes)%tr.TotalNodes()
		wall := units.Duration(1 + reqWall%20)
		got, _ := plan.EarliestStart(nodes, wall)

		cellBusy := func(cell int, at units.Time) bool {
			for _, s := range spans {
				for _, c := range s.cells {
					if c == cell && s.from <= at && at < s.to {
						return true
					}
				}
			}
			return false
		}
		canPlace := func(at units.Time) bool {
			found := false
			tr.placements(nodes, func(_ int, cells []int) bool {
				ok := true
				for _, c := range cells {
					for dt := units.Time(0); dt < units.Time(wall); dt++ {
						if cellBusy(c, at+dt) {
							ok = false
							break
						}
					}
					if !ok {
						break
					}
				}
				if ok {
					found = true
					return false
				}
				return true
			})
			return found
		}
		want, ok := bruteEarliest(canPlace, now, now+150)
		free := 0
		for cell := 0; cell < 8; cell++ {
			if !cellBusy(cell, now) {
				free += 4
			}
		}
		return ok && got == want && plan.FreeNow(nodes) == free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
