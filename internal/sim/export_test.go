// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package sim

import "time"

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.nodes) }

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Duration converts t into a time.Duration for interoperability with
// formatting helpers. Virtual and wall durations share the nanosecond unit.
//
// Parked, not an observer: only its own tests read it. ROADMAP's
// reachability item deletes it with those tests.
func (t Time) Duration() time.Duration { return time.Duration(t) }
