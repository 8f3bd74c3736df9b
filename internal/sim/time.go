// Package sim provides the discrete-event simulation kernel used by every
// packet-level experiment in this repository: a virtual clock, an event
// queue with deterministic ordering, timers, and a seeded random source.
//
// The kernel is single-threaded by design. Determinism — identical results
// for identical seeds — is a hard requirement because the experiments
// compare two protocols under exactly the same arrival pattern.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp measured in integer nanoseconds since the
// start of the simulation. Integer nanoseconds are exact for every rate and
// size used in the paper (a 1500-byte packet takes exactly 1200 ns at
// 10 Gbps and 12000 ns at 1 Gbps).
type Time int64

// Common instants and conversion helpers.
const (
	// TimeZero is the start of every simulation.
	TimeZero Time = 0
	// TimeNever is a sentinel meaning "no scheduled instant".
	TimeNever Time = -1
)

// FromDuration converts a wall-clock style duration into a virtual Time
// offset.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts the timestamp into a time.Duration offset from the
// simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp in seconds as a float, for metric output.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d.Nanoseconds()) }

// String formats the timestamp with microsecond resolution, which is the
// natural scale for data-center RTTs.
func (t Time) String() string {
	if t == TimeNever {
		return "never"
	}
	return fmt.Sprintf("%.3fµs", float64(t)/1e3)
}
