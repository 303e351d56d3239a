// Package sim provides the discrete-event simulation substrate used by every
// experiment in this repository: a virtual clock, an event queue, and seeded
// random-number streams.
//
// All latency and energy numbers in the reproduction are measured against the
// virtual clock, never wall time, so runs are deterministic under a seed and
// complete orders of magnitude faster than the real-time experiments in the
// paper.
package sim

import "fmt"

// Time is a point (or span) of virtual time in nanoseconds.
//
// It deliberately mirrors time.Duration arithmetic but is a distinct type so
// that virtual timestamps cannot be accidentally mixed with wall-clock values.
type Time int64

// Common virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(1<<63 - 1)

// Seconds converts a float64 number of seconds into a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Micros converts a float64 number of microseconds into a Time.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.5ms" or "2.25s".
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "∞"
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}
