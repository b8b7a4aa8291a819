package workload

import (
	"math"
	"testing"

	"amjs/internal/job"
	"amjs/internal/units"
)

func mkJobs() []*job.Job {
	return []*job.Job{
		{ID: 1, User: "a", Submit: 100, Nodes: 64, Walltime: 100, Runtime: 50},
		{ID: 2, User: "b", Submit: 200, Nodes: 512, Walltime: 100, Runtime: 50},
		{ID: 3, User: "a", Submit: 300, Nodes: 128, Walltime: 100, Runtime: 50},
		{ID: 4, User: "c", Submit: 400, Nodes: 32, Walltime: 100, Runtime: 50},
	}
}

func TestSlice(t *testing.T) {
	jobs := mkJobs()
	got := Slice(jobs, 150, 350)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("Slice wrong: %v", got)
	}
	if got[0].Submit != 0 || got[1].Submit != 100 {
		t.Errorf("Slice not rebased: %v %v", got[0].Submit, got[1].Submit)
	}
	// Originals untouched.
	if jobs[1].Submit != 200 {
		t.Error("Slice mutated input")
	}
	if out := Slice(jobs, 900, 1000); len(out) != 0 {
		t.Errorf("empty slice returned %d jobs", len(out))
	}
}

// The generator's diurnal cycle must produce more daytime than
// nighttime arrivals, and the weekend factor must thin days 6–7.
func TestGeneratorCycles(t *testing.T) {
	cfg := Mini(9)
	cfg.Horizon = 14 * units.Day
	cfg.Arrival.MeanInterarrival = 5 * units.Minute
	cfg.Arrival.DiurnalAmplitude = 0.8
	cfg.Arrival.WeekendFactor = 0.3
	cfg.Arrival.BurstProb = 0 // isolate the cycles from burst noise
	jobs, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	day, night := 0, 0
	weekday, weekend := 0, 0
	for _, j := range jobs {
		hourOfDay := float64(j.Submit%units.Time(units.Day)) / float64(units.Hour)
		// The rate peaks at 12h (sin phase -0.25 day): count 6-18 as day.
		if hourOfDay >= 6 && hourOfDay < 18 {
			day++
		} else {
			night++
		}
		dayIdx := int(j.Submit/units.Time(units.Day)) % 7
		if dayIdx >= 5 {
			weekend++
		} else {
			weekday++
		}
	}
	if day <= night {
		t.Errorf("diurnal cycle missing: day=%d night=%d", day, night)
	}
	// Per-day rates: weekdays should far outpace weekend days.
	weekdayRate := float64(weekday) / 5
	weekendRate := float64(weekend) / 2
	if weekendRate > weekdayRate*0.7 {
		t.Errorf("weekend thinning missing: weekday/day=%.0f weekend/day=%.0f", weekdayRate, weekendRate)
	}
	if math.IsNaN(weekdayRate) {
		t.Fatal("no jobs generated")
	}
}
