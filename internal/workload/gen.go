package workload

import (
	"fmt"
	"math"

	"amjs/internal/job"
	"amjs/internal/rng"
	"amjs/internal/units"
)

// SizeWeight assigns a sampling weight to a node-count request.
type SizeWeight struct {
	Nodes  int
	Weight float64
}

// ArrivalConfig shapes the job arrival process: a nonhomogeneous Poisson
// process with diurnal and weekly cycles, plus occasional bursts
// (campaigns of related submissions close together), which are what
// stress a queue and expose the differences between scheduling policies.
type ArrivalConfig struct {
	MeanInterarrival units.Duration // base mean spacing at cycle average
	DiurnalAmplitude float64        // 0..1: day/night swing of the rate
	WeekendFactor    float64        // rate multiplier on days 6 and 7 (0 < f <= 1)
	BurstProb        float64        // probability an arrival opens a burst
	MeanBurstSize    int            // mean extra jobs per burst
	BurstSpread      units.Duration // window the burst arrivals land in
}

// RuntimeConfig shapes actual job runtimes: lognormal, truncated.
type RuntimeConfig struct {
	MedianSeconds float64        // exp(mu) of the lognormal
	Sigma         float64        // lognormal shape
	Min           units.Duration // floor
	Max           units.Duration // ceiling (site walltime limit)
}

// WalltimeConfig shapes user walltime requests relative to runtimes.
// Users are modelled as a mixture: a fraction request (close to) the
// exact runtime, the rest pad by a random factor — reproducing the
// well-documented overestimation in production logs.
type WalltimeConfig struct {
	ExactProb   float64        // request == runtime (rounded up)
	SmallPadMax float64        // pad factor drawn U(1, SmallPadMax) with prob (1-ExactProb)/2
	LargePadMax float64        // pad factor drawn U(SmallPadMax, LargePadMax) otherwise
	Granularity units.Duration // requests round up to this grid
	Min         units.Duration
	Max         units.Duration
}

// Config fully specifies a synthetic workload.
type Config struct {
	Name    string
	Seed    int64
	Horizon units.Duration // arrivals generated in [0, Horizon]
	MaxJobs int            // hard cap; 0 means no cap

	MachineNodes int // target machine size (for validation and load accounting)
	Sizes        []SizeWeight
	OddSizeProb  float64 // probability a request is shrunk off its partition size

	Arrival  ArrivalConfig
	Runtime  RuntimeConfig
	Walltime WalltimeConfig

	Users    int     // user population
	UserSkew float64 // Zipf skew of submissions across users
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("workload: non-positive horizon")
	case c.MachineNodes <= 0:
		return fmt.Errorf("workload: non-positive machine size")
	case len(c.Sizes) == 0:
		return fmt.Errorf("workload: no size distribution")
	case c.Arrival.MeanInterarrival <= 0:
		return fmt.Errorf("workload: non-positive mean interarrival")
	case c.Arrival.DiurnalAmplitude < 0 || c.Arrival.DiurnalAmplitude > 1:
		return fmt.Errorf("workload: diurnal amplitude %v outside [0,1]", c.Arrival.DiurnalAmplitude)
	case c.Arrival.WeekendFactor <= 0 || c.Arrival.WeekendFactor > 1:
		return fmt.Errorf("workload: weekend factor %v outside (0,1]", c.Arrival.WeekendFactor)
	case c.Runtime.MedianSeconds <= 0 || c.Runtime.Sigma < 0:
		return fmt.Errorf("workload: bad runtime distribution")
	case c.Runtime.Min <= 0 || c.Runtime.Max < c.Runtime.Min:
		return fmt.Errorf("workload: bad runtime bounds")
	case c.Walltime.Max < c.Runtime.Max:
		return fmt.Errorf("workload: walltime cap below runtime cap")
	case c.Users <= 0:
		return fmt.Errorf("workload: no users")
	}
	for _, s := range c.Sizes {
		if s.Nodes <= 0 || s.Nodes > c.MachineNodes {
			return fmt.Errorf("workload: size %d outside machine (%d nodes)", s.Nodes, c.MachineNodes)
		}
		if s.Weight < 0 {
			return fmt.Errorf("workload: negative weight for size %d", s.Nodes)
		}
	}
	return nil
}

// Generate synthesizes the workload: the jobs Stream yields, collected.
// Jobs are sorted by submit time with IDs assigned 1..n in that order,
// and every job passes job.Validate.
func (c *Config) Generate() ([]*job.Job, error) {
	src, err := c.Stream()
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// rateAt is the arrival intensity at simulated instant t.
func (c *Config) rateAt(t units.Time) float64 {
	base := 1 / float64(c.Arrival.MeanInterarrival)
	day := float64(t%units.Time(units.Day)) / float64(units.Day)
	rate := base * (1 + c.Arrival.DiurnalAmplitude*math.Sin(2*math.Pi*(day-0.25)))
	weekday := int(t/units.Time(units.Day)) % 7
	if weekday >= 5 {
		rate *= c.Arrival.WeekendFactor
	}
	return rate
}

// drawWalltime samples a user walltime request for the given runtime.
func (c *Config) drawWalltime(r *rng.Source, runtime units.Duration) units.Duration {
	w := &c.Walltime
	factor := 1.0
	switch {
	case r.Bool(w.ExactProb):
		factor = 1.0
	case r.Bool(0.5):
		factor = r.Uniform(1, w.SmallPadMax)
	default:
		factor = r.Uniform(w.SmallPadMax, w.LargePadMax)
	}
	wall := units.Duration(float64(runtime) * factor)
	if g := w.Granularity; g > 0 {
		wall = (wall + g - 1) / g * g
	}
	wall = wall.Clamp(w.Min, w.Max)
	if wall < runtime {
		wall = runtime // never truncate the job
	}
	return wall
}

// Intrepid is a workload preset calibrated to the paper's evaluation
// platform: the 40,960-node Intrepid Blue Gene/P, with partition-
// quantized job sizes, heavy-tailed runtimes, and a month-long horizon.
// The offered load (~80%) queues the machine without saturating it.
func Intrepid(seed int64) Config {
	return Config{
		Name:         "intrepid-month",
		Seed:         seed,
		Horizon:      30 * units.Day,
		MachineNodes: 40960,
		Sizes: []SizeWeight{
			{512, 0.34}, {1024, 0.27}, {2048, 0.17}, {4096, 0.12},
			{8192, 0.06}, {16384, 0.03}, {32768, 0.008}, {40960, 0.002},
		},
		OddSizeProb: 0.15,
		Arrival: ArrivalConfig{
			MeanInterarrival: 14 * units.Minute,
			DiurnalAmplitude: 0.35,
			WeekendFactor:    0.6,
			BurstProb:        0.008,
			MeanBurstSize:    90,
			BurstSpread:      90 * units.Minute,
		},
		Runtime: RuntimeConfig{
			MedianSeconds: 2400,
			Sigma:         1.5,
			Min:           2 * units.Minute,
			Max:           12 * units.Hour,
		},
		Walltime: WalltimeConfig{
			ExactProb:   0.15,
			SmallPadMax: 2,
			LargePadMax: 10,
			Granularity: 5 * units.Minute,
			Min:         10 * units.Minute,
			Max:         24 * units.Hour,
		},
		Users:    60,
		UserSkew: 1.2,
	}
}

// IntrepidYear is the Intrepid preset stretched to a year-long horizon,
// the scale the production trace replays cover. Capped at 50k jobs it
// is the calibrated trace behind BenchmarkSimAtScale; uncapped it
// yields ~65k jobs. Same distributions as Intrepid, so the offered
// load stays at the paper's ~80%.
func IntrepidYear(seed int64) Config {
	c := Intrepid(seed)
	c.Name = "intrepid-year"
	c.Horizon = 365 * units.Day
	c.MaxJobs = 50_000
	return c
}

// IntrepidHeavy is the Intrepid preset with a heavier, burstier load —
// the "different workload" second trace used for Table II.
func IntrepidHeavy(seed int64) Config {
	c := Intrepid(seed)
	c.Name = "intrepid-heavy"
	c.Arrival.MeanInterarrival = 14 * units.Minute
	c.Arrival.BurstProb = 0.009
	return c
}

// Mini is a small, fast preset on a 512-node (8-midplane) machine for
// tests and examples.
func Mini(seed int64) Config {
	return Config{
		Name:         "mini",
		Seed:         seed,
		Horizon:      4 * units.Day,
		MachineNodes: 512,
		Sizes: []SizeWeight{
			{64, 0.35}, {128, 0.30}, {256, 0.20}, {512, 0.15},
		},
		OddSizeProb: 0.15,
		Arrival: ArrivalConfig{
			MeanInterarrival: 30 * units.Minute,
			DiurnalAmplitude: 0.4,
			WeekendFactor:    0.7,
			BurstProb:        0.03,
			MeanBurstSize:    6,
			BurstSpread:      20 * units.Minute,
		},
		Runtime: RuntimeConfig{
			MedianSeconds: 1200,
			Sigma:         1.3,
			Min:           units.Minute,
			Max:           6 * units.Hour,
		},
		Walltime: WalltimeConfig{
			ExactProb:   0.15,
			SmallPadMax: 2,
			LargePadMax: 8,
			Granularity: 5 * units.Minute,
			Min:         10 * units.Minute,
			Max:         12 * units.Hour,
		},
		Users:    12,
		UserSkew: 1.1,
	}
}
