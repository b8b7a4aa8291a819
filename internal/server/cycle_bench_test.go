package server

import (
	"math"
	"strconv"
	"testing"

	"amjs/internal/machine"
	"amjs/internal/rng"
	"amjs/internal/sched"
)

// BenchmarkDaemonCycle is the daemon's admission-to-completion path
// without the network: one iteration is a fresh batch-mode daemon on a
// 40960-node flat machine under EASY, 100k tiny jobs admitted through
// SubmitBatch in 256-job batches, then Drain and Close. The shape
// mirrors the daemon-ingest benchmark workload minus its HTTP layer, so
// `make profile` gives the profile of the lanes, Live.Submit, the
// prediction plan and the engine's drain in one command.
func BenchmarkDaemonCycle(b *testing.B) {
	const (
		jobs  = 100_000
		batch = 256
		nodes = 40960
	)
	r := rng.New(42)
	reqs := make([]SubmitRequest, jobs)
	for i := range reqs {
		reqs[i] = SubmitRequest{
			User:        "u" + strconv.Itoa(r.Intn(17)),
			Nodes:       1 + r.Intn(4),
			WalltimeSec: 900,
			RuntimeSec:  600,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New(Config{
			Machine:   machine.NewFlat(nodes),
			Scheduler: sched.NewEASY(),
			Speedup:   math.Inf(1),
			Lean:      true,
			Logger:    quietLogger(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(reqs); lo += batch {
			for _, res := range d.SubmitBatch(reqs[lo:min(lo+batch, len(reqs))]) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		if _, err := d.Drain(); err != nil {
			b.Fatal(err)
		}
		if st := d.Stats(); st.Finished+st.Killed != jobs {
			b.Fatalf("%d of %d jobs completed", st.Finished+st.Killed, jobs)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
