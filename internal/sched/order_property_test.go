package sched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"amjs/internal/job"
	"amjs/internal/sched"
	"amjs/internal/units"
)

// propQueue builds a deterministic pseudo-random queue with varied
// submit times, sizes, and walltimes (some shared, so every order sees
// genuine ties mixed with genuine score differences).
func propQueue(r *rand.Rand, n int) []*job.Job {
	queue := make([]*job.Job, n)
	for i := range queue {
		wall := units.Duration(60 * (1 + r.Intn(40)))
		queue[i] = &job.Job{
			ID:       i + 1,
			User:     "u",
			Submit:   units.Time(10 * r.Intn(50)),
			Nodes:    1 << r.Intn(8),
			Walltime: wall,
			Runtime:  wall / 2,
			State:    job.Queued,
		}
	}
	return queue
}

// shuffled returns a seeded permutation of queue (a new slice).
func shuffled(r *rand.Rand, queue []*job.Job) []*job.Job {
	out := append([]*job.Job(nil), queue...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestOrderProperties walks the full Order registry and asserts, for
// every zoo order, the contract byKey promises: the output is a total
// order over the input (a permutation, nothing dropped or invented),
// deterministic (same input, same output), permutation-invariant
// (shuffling the queue never changes the result), and non-mutating.
// A new Order is one registry line away from all of these checks.
func TestOrderProperties(t *testing.T) {
	orders := sched.Orders()
	seen := map[string]bool{}
	for _, no := range orders {
		if no.Name == "" || no.Order == nil {
			t.Fatalf("registry entry %q incomplete", no.Name)
		}
		if seen[no.Name] {
			t.Fatalf("registry name %q registered twice", no.Name)
		}
		seen[no.Name] = true
	}

	for _, no := range orders {
		no := no
		t.Run(no.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				queue := propQueue(r, 1+r.Intn(30))
				now := units.Time(1000)
				inputIDs := ids(queue)

				got := ids(no.Order(now, queue))
				if !reflect.DeepEqual(ids(queue), inputIDs) {
					t.Fatalf("trial %d: order mutated its input queue", trial)
				}
				// Total: a permutation of the input.
				if len(got) != len(queue) {
					t.Fatalf("trial %d: %d jobs in, %d out", trial, len(queue), len(got))
				}
				count := map[int]int{}
				for _, id := range inputIDs {
					count[id]++
				}
				for _, id := range got {
					count[id]--
				}
				for id, c := range count {
					if c != 0 {
						t.Fatalf("trial %d: job %d in %d times, out %d times too few/many (%d)",
							trial, id, count[id], c, c)
					}
				}
				// Deterministic: same call, same answer.
				if again := ids(no.Order(now, queue)); !reflect.DeepEqual(again, got) {
					t.Fatalf("trial %d: two calls disagree:\n  %v\n  %v", trial, got, again)
				}
				// Permutation-invariant: any input shuffle, same answer.
				for s := 0; s < 4; s++ {
					perm := shuffled(r, queue)
					if pg := ids(no.Order(now, perm)); !reflect.DeepEqual(pg, got) {
						t.Fatalf("trial %d shuffle %d: order depends on input order:\n  %v\n  %v",
							trial, s, got, pg)
					}
				}
			}
		})
	}
}

// TestOrderTieBreakContract crafts equal-score queues and asserts the
// conventional (submit, ID) tie-break on every registered order.
//
// Queue A: jobs identical in every score input, distinct IDs — every
// order must yield ascending IDs. Queue B: identical except submit —
// every order must yield ascending submit (size-based orders tie-break
// to submit; wait-based scores grow with wait, so the earliest
// submission outranks later ones either way), with IDs deliberately
// anti-correlated so submission order != ID order.
func TestOrderTieBreakContract(t *testing.T) {
	for _, no := range sched.Orders() {
		no := no
		t.Run(no.Name, func(t *testing.T) {
			// Queue A: pure ID tie-break, presented in descending ID order.
			var equal []*job.Job
			for id := 6; id >= 1; id-- {
				equal = append(equal, &job.Job{
					ID: id, User: "u", Submit: 40, Nodes: 16,
					Walltime: 600, Runtime: 300, State: job.Queued,
				})
			}
			if got := ids(no.Order(1000, equal)); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
				t.Errorf("equal-score queue: got %v, want ascending IDs", got)
			}

			// Queue B: distinct submits, IDs reversed against them.
			var bySubmit []*job.Job
			for i := 0; i < 5; i++ {
				bySubmit = append(bySubmit, &job.Job{
					ID: 5 - i, User: "u", Submit: units.Time(10 * i), Nodes: 16,
					Walltime: 600, Runtime: 300, State: job.Queued,
				})
			}
			// Expected: submit ascending, i.e. IDs 5,4,3,2,1.
			if got := ids(no.Order(1000, bySubmit)); !reflect.DeepEqual(got, []int{5, 4, 3, 2, 1}) {
				t.Errorf("equal-score-but-submit queue: got %v, want submit order [5 4 3 2 1]", got)
			}

			// Queue C: equal submits AND one pair of duplicate IDs is not
			// legal input; instead verify stability directly — equal jobs
			// presented twice in different positions land deterministically
			// (covered by queue A) — and that an empty queue is a no-op.
			if got := no.Order(1000, nil); len(got) != 0 {
				t.Errorf("nil queue: got %d jobs", len(got))
			}
		})
	}
}
