package rl

// trainArena holds the flat, row-major minibatch buffers a trainer reuses
// across updates, so assembling a batch and driving the batched nn kernels
// performs zero steady-state heap allocations. Buffers grow on demand (the
// first update at a given batch size allocates) and are reused afterwards.
type trainArena struct {
	states  []float64 // [n×stateDim]
	actions []float64 // [n×actionDim]
	next    []float64 // [n×stateDim]
	rewards []float64 // [n]
	done    []bool    // [n]
	y       []float64 // [n] bootstrapped targets
	dq      []float64 // [n] dL/dQ seeds
	grad    []float64 // [n×gradDim] network-output gradient rows
}

// ensure grows the arena to hold n samples of the given widths.
func (a *trainArena) ensure(n, stateDim, actionDim, gradDim int) {
	if cap(a.states) < n*stateDim {
		a.states = make([]float64, n*stateDim)
		a.next = make([]float64, n*stateDim)
	}
	if cap(a.actions) < n*actionDim {
		a.actions = make([]float64, n*actionDim)
	}
	if cap(a.rewards) < n {
		a.rewards = make([]float64, n)
		a.done = make([]bool, n)
		a.y = make([]float64, n)
		a.dq = make([]float64, n)
	}
	if cap(a.grad) < n*gradDim {
		a.grad = make([]float64, n*gradDim)
	}
	a.states = a.states[:n*stateDim]
	a.actions = a.actions[:n*actionDim]
	a.next = a.next[:n*stateDim]
	a.rewards = a.rewards[:n]
	a.done = a.done[:n]
	a.y = a.y[:n]
	a.dq = a.dq[:n]
	a.grad = a.grad[:n*gradDim]
}

// load flattens a minibatch into the arena's row-major buffers — the only
// per-transition work is a bounded copy, no slice allocations.
func (a *trainArena) load(batch []Transition, stateDim, actionDim, gradDim int) {
	a.ensure(len(batch), stateDim, actionDim, gradDim)
	for i, tr := range batch {
		copy(a.states[i*stateDim:(i+1)*stateDim], tr.State)
		copy(a.actions[i*actionDim:(i+1)*actionDim], tr.Action)
		copy(a.next[i*stateDim:(i+1)*stateDim], tr.NextState)
		a.rewards[i] = tr.Reward
		a.done[i] = tr.Done
	}
}
