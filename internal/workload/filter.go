package workload

import (
	"amjs/internal/job"
	"amjs/internal/units"
)

// Slice returns the jobs submitted in [from, to), cloned and rebased so
// the earliest kept job submits at 0 — the standard way to cut a
// month-long trace into the windows the paper's figures plot.
func Slice(jobs []*job.Job, from, to units.Time) []*job.Job {
	var out []*job.Job
	for _, j := range jobs {
		if j.Submit >= from && j.Submit < to {
			out = append(out, j.Clone())
		}
	}
	Rebase(out)
	return out
}
