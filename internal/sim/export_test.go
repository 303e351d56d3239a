// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package sim

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.nodes) + int(e.postTail-e.postHead) }

// postCap reports the capacity of the post ring.
func (e *Engine) postCap() int { return len(e.post) }

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
