// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine advances a virtual clock measured in nanoseconds. Simulated
// processes are runtime coroutines, resumed one at a time by the engine's
// driver loop, so at most one process executes at any instant: a process
// runs until it blocks on a simulation primitive (Sleep, Wait, queue
// receive, ...), at which point control returns to the engine, which
// dispatches the next event in timestamp order. Events with equal timestamps are delivered in the order
// they were scheduled, so a run is a pure function of the program and the
// engine's seed.
//
// This engine is the substrate for the Millipage reproduction: simulated
// hosts, DSM protocol threads, and application threads are all sim
// processes, and every cost charged by the system (fault handling,
// message latency, protection changes) is virtual time on this clock.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration but is kept distinct so wall-clock values cannot be mixed
// into the simulation by accident.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports d as a floating-point count of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds reports d as a floating-point count of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as a floating-point count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("t=%.3fus", float64(t)/1e3) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}
