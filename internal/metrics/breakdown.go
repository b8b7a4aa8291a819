package metrics

import (
	"fmt"
	"sort"
	"strings"

	"amjs/internal/job"
	"amjs/internal/stats"
	"amjs/internal/units"
)

// ClassStat is one row of a per-class breakdown.
type ClassStat struct {
	Class string
	Jobs  int
	Wait  stats.Summary // minutes
}

// WaitBySize buckets completed jobs by their node request as a fraction
// of the machine and summarizes waiting times per bucket — the standard
// diagnostic for the large-job starvation that SJF-leaning policies
// (low BF) induce (§IV-B discusses exactly this effect).
func WaitBySize(jobs []*job.Job, machineNodes int) []ClassStat {
	buckets := []struct {
		name string
		max  float64 // inclusive upper bound on nodes/machineNodes
	}{
		{"<=1/32 machine", 1.0 / 32},
		{"<=1/8 machine", 1.0 / 8},
		{"<=1/2 machine", 1.0 / 2},
		{">1/2 machine", 1},
	}
	return breakdown(jobs, func(j *job.Job) string {
		frac := float64(j.Nodes) / float64(machineNodes)
		for _, b := range buckets {
			if frac <= b.max {
				return b.name
			}
		}
		return buckets[len(buckets)-1].name
	}, classOrder(buckets))
}

func classOrder(buckets []struct {
	name string
	max  float64
}) []string {
	order := make([]string, len(buckets))
	for i, b := range buckets {
		order[i] = b.name
	}
	return order
}

// WaitByRuntime buckets completed jobs by actual runtime and summarizes
// waiting times per bucket.
func WaitByRuntime(jobs []*job.Job) []ClassStat {
	class := func(j *job.Job) string {
		switch {
		case j.Runtime <= 10*units.Minute:
			return "<=10 min"
		case j.Runtime <= units.Hour:
			return "<=1 h"
		case j.Runtime <= 4*units.Hour:
			return "<=4 h"
		default:
			return ">4 h"
		}
	}
	return breakdown(jobs, class, []string{"<=10 min", "<=1 h", "<=4 h", ">4 h"})
}

// WaitByUser summarizes waiting times for the heaviest-submitting
// users (topN), with everyone else aggregated as "(others)".
func WaitByUser(jobs []*job.Job, topN int) []ClassStat {
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.User]++
	}
	users := make([]string, 0, len(counts))
	for u := range counts {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if counts[users[i]] != counts[users[j]] {
			return counts[users[i]] > counts[users[j]]
		}
		return users[i] < users[j]
	})
	top := map[string]bool{}
	for i, u := range users {
		if i >= topN {
			break
		}
		top[u] = true
	}
	order := append([]string{}, users[:min(topN, len(users))]...)
	order = append(order, "(others)")
	return breakdown(jobs, func(j *job.Job) string {
		if top[j.User] {
			return j.User
		}
		return "(others)"
	}, order)
}

// breakdown groups jobs by class and summarizes their waits in minutes,
// keeping the given class order and dropping empty classes.
func breakdown(jobs []*job.Job, class func(*job.Job) string, order []string) []ClassStat {
	waits := map[string][]float64{}
	for _, j := range jobs {
		if j.State != job.Finished && j.State != job.Killed {
			continue
		}
		c := class(j)
		waits[c] = append(waits[c], j.Wait().Minutes())
	}
	var out []ClassStat
	for _, c := range order {
		ws, ok := waits[c]
		if !ok {
			continue
		}
		out = append(out, ClassStat{Class: c, Jobs: len(ws), Wait: stats.Summarize(ws)})
	}
	return out
}

// FormatBreakdown renders class stats as a fixed-width block.
func FormatBreakdown(title string, rows []ClassStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-16s %6s %12s %12s %12s\n", "class", "jobs", "mean(m)", "p50(m)", "max(m)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-16s %6d %12.1f %12.1f %12.1f\n",
			r.Class, r.Jobs, r.Wait.Mean, r.Wait.P50, r.Wait.Max)
	}
	return b.String()
}
