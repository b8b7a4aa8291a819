// Package units defines the time types used throughout the simulator.
//
// Simulated time is measured in integer seconds from an arbitrary epoch
// (usually the submission time of the first job in a workload). Using
// integer seconds keeps every node-time integral exact and makes
// simulations bit-for-bit reproducible across platforms.
package units

import "fmt"

// Time is an absolute instant in simulated time, in seconds since the
// workload epoch.
type Time int64

// Duration is a span of simulated time in seconds.
type Duration int64

// Common durations.
const (
	Second Duration = 1
	Minute Duration = 60 * Second
	Hour   Duration = 60 * Minute
	Day    Duration = 24 * Hour
	Week   Duration = 7 * Day
)

// Forever is a sentinel Time far beyond any realistic simulation horizon.
// It is used as "never" / "unbounded" in availability planning.
const Forever Time = 1<<62 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Min returns the earlier of t and u.
func (t Time) Min(u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Hours expresses the instant as fractional hours since the epoch.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// Seconds expresses the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Minutes expresses the duration in fractional minutes.
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

// HoursF expresses the duration in fractional hours.
func (d Duration) HoursF() float64 { return float64(d) / float64(Hour) }

// Min returns the smaller of d and e.
func (d Duration) Min(e Duration) Duration {
	if d < e {
		return d
	}
	return e
}

// Max returns the larger of d and e.
func (d Duration) Max(e Duration) Duration {
	if d > e {
		return d
	}
	return e
}

// Clamp limits d to the inclusive range [lo, hi].
func (d Duration) Clamp(lo, hi Duration) Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Minutes builds a Duration from fractional minutes, rounding to the
// nearest second.
func Minutes(m float64) Duration { return Duration(m*60 + 0.5) }

// Hours builds a Duration from fractional hours, rounding to the nearest
// second.
func Hours(h float64) Duration { return Duration(h*3600 + 0.5) }

// String renders the duration as [-]h:mm:ss, the conventional walltime
// notation of batch systems.
func (d Duration) String() string {
	neg := d < 0
	if neg {
		d = -d
	}
	h := d / Hour
	m := (d % Hour) / Minute
	s := d % Minute
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%d:%02d:%02d", sign, h, m, s)
}

// String renders the instant as the duration since the epoch.
func (t Time) String() string { return Duration(t).String() }
