package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestGeneratedTraceDigests pins the synthetic generator's output: a
// SHA-256 over every job's (ID, User, Submit, Nodes, Walltime, Runtime)
// for the presets the experiments and benchmarks replay, the full
// 50k-job Intrepid year included. Any change to the arrival process,
// the attribute draws or their RNG streams moves a digest.
func TestGeneratedTraceDigests(t *testing.T) {
	capped := func(c Config, n int) Config { c.MaxJobs = n; return c }
	cases := []struct {
		name string
		cfg  Config
		jobs int
		want string
	}{
		{"mini", Mini(3), 236,
			"3623654558e2c75e1ecfa987001ec9c573fdbfeb1b99092f29c84a9d4a0a756f"},
		{"intrepid", capped(Intrepid(7), 2000), 2000,
			"2262fdf463c0a372ca241475a33005df8ce36006a06a6901384439236421acb9"},
		{"heavy", capped(IntrepidHeavy(11), 500), 500,
			"aa73ecaa86af74e7ca123c4708dee9bdc2bc9928f467480f2dde122ab0974bee"},
		{"year", IntrepidYear(42), 50000,
			"976ebbaed38918885e1b7cae6223d7a47baaf8ecf4b70aaacfecc5b5903c93f8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := tc.cfg.Generate()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, j := range jobs {
				fmt.Fprintf(h, "%d %s %d %d %d %d\n", j.ID, j.User, int64(j.Submit), j.Nodes, int64(j.Walltime), int64(j.Runtime))
			}
			if got := hex.EncodeToString(h.Sum(nil)); len(jobs) != tc.jobs || got != tc.want {
				t.Errorf("%d jobs, digest %s; want %d jobs, digest %s", len(jobs), got, tc.jobs, tc.want)
			}
		})
	}
}
