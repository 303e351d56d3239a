package rl

import (
	"fmt"
	"io"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// DQNConfig parameterizes DQN and DDQN agents over a discrete action set.
type DQNConfig struct {
	StateDim   int
	NumActions int
	// hidden defaults to [32, 24, 16], the paper's lightweight size; only
	// this package's tests shrink it.
	hidden []int
	// Double selects DDQN's decoupled action selection/evaluation.
	Double bool
	Seed   int64
}

func (c DQNConfig) withDefaults() (DQNConfig, error) {
	if c.StateDim <= 0 || c.NumActions <= 0 {
		return c, fmt.Errorf("rl: DQN needs positive dims, got state %d actions %d",
			c.StateDim, c.NumActions)
	}
	if c.hidden == nil {
		c.hidden = []int{32, 24, 16}
	}
	return c, nil
}

// DQN is a deep Q-network agent; with Double=true it performs DDQN updates
// (van Hasselt et al. 2016).
type DQN struct {
	cfg    DQNConfig
	Q      *nn.MLP
	Target *nn.MLP
	opt    *nn.Adam
	rng    *sim.RNG
	guard  guard

	// arena holds the reused flat minibatch buffers of the batched update
	// path; sel caches the DDQN per-row action selections.
	arena trainArena
	sel   []int
}

// NewDQN builds an agent.
func NewDQN(cfg DQNConfig) (*DQN, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(sim.SubSeed(full.Seed, "dqn-init"))
	sizes := append([]int{full.StateDim}, full.hidden...)
	sizes = append(sizes, full.NumActions)
	q := nn.NewMLP(sizes, nn.ReLU, nn.Identity, rng)
	d := &DQN{
		cfg:    full,
		Q:      q,
		Target: q.Clone(),
		rng:    sim.NewRNG(sim.SubSeed(full.Seed, "dqn-explore")),
	}
	d.guard.rebuild = d.resetOptimizer
	d.rewire()
	return d, nil
}

func (d *DQN) resetOptimizer() { d.opt = newAdam(d.Q.Layers) }

// rewire rebuilds what hangs off the network objects — the optimizer and the
// guard's snapshot arena — at construction and after a load replaced them.
func (d *DQN) rewire() {
	d.resetOptimizer()
	d.guard.watch(d.Q.Layers, d.Target.Layers)
}

// Act returns the greedy action index for a state.
func (d *DQN) Act(state []float64) int {
	return Argmax(d.Q.Forward(state))
}

// ActEpsilonGreedy explores with probability eps.
func (d *DQN) ActEpsilonGreedy(state []float64, eps float64) int {
	if d.rng.Float64() < eps {
		return d.rng.Intn(d.cfg.NumActions)
	}
	return d.Act(state)
}

// ActBatch evaluates Q(s,·) for n row-major states and returns the
// [n×NumActions] value rows (aliasing the network's internal buffers;
// consume before the next forward or update). Argmax over row i equals
// Act on state i — the vectorized greedy act path.
func (d *DQN) ActBatch(states []float64, n int) []float64 {
	return d.Q.ForwardBatch(states, n)
}

// Update performs one gradient step on a minibatch. Transitions must carry
// a single-element Action slice holding the action index.
//
// The step runs on the batched nn kernels over reused flat buffers; it is
// bit-identical to the per-sample reference (updatePerSample, in the tests)
// and allocation-free at steady state. Like the actor–critic Update it is
// divergence-guarded (see guard): a step that produces a non-finite loss or
// weight is rolled back and skipped, and reports a zero loss; and like it, it
// opens no pass by clearing gradients — the Step that closed the previous
// update left them zero.
func (d *DQN) Update(batch []Transition) (loss float64) {
	if len(batch) == 0 {
		return 0
	}
	n := len(batch)
	d.guard.snapshot()
	inv := 1 / float64(n)
	k := d.cfg.NumActions
	ar := &d.arena
	ar.load(batch, d.cfg.StateDim, 1, k)
	if cap(d.sel) < n {
		d.sel = make([]int, n)
	}
	d.sel = d.sel[:n]

	// Bootstrap targets, batch-wide (terminal rows are computed but masked
	// out of y; no RNG is involved, so the discarded work is harmless).
	if d.cfg.Double {
		// DDQN: online net selects, target net evaluates.
		qNext := d.Q.ForwardBatch(ar.next, n)
		for i := 0; i < n; i++ {
			d.sel[i] = Argmax(qNext[i*k : (i+1)*k])
		}
	}
	tNext := d.Target.ForwardBatch(ar.next, n)
	for i := 0; i < n; i++ {
		y := ar.rewards[i]
		if !ar.done[i] {
			if d.cfg.Double {
				y += gamma * tNext[i*k+d.sel[i]]
			} else {
				y += gamma * maxOf(tNext[i*k:(i+1)*k])
			}
		}
		ar.y[i] = y
	}

	q := d.Q.ForwardBatch(ar.states, n)
	for i := range ar.grad {
		ar.grad[i] = 0
	}
	for i := 0; i < n; i++ {
		a := int(ar.actions[i])
		diff := q[i*k+a] - ar.y[i]
		loss += diff * diff * inv
		ar.grad[i*k+a] = 2 * diff * inv
	}
	d.Q.BackwardBatch(ar.grad, n)
	d.opt.Step()
	d.Target.SoftUpdateFrom(d.Q, tau)
	if d.guard.diverged(isFinite(loss)) {
		return 0
	}
	return loss
}

// Divergences reports how many updates were rolled back for producing a
// non-finite loss or weights.
func (d *DQN) Divergences() uint64 { return d.guard.divergences }

// NumParams reports the Q-network parameter count.
func (d *DQN) NumParams() int { return d.Q.NumParams() }

// SavePolicy writes the trained Q-network as a sealed KindPolicy container —
// the same exported entry point the continuous-action agents provide.
func (d *DQN) SavePolicy(w io.Writer) error { return savePolicyNet(w, d.Q) }

// LoadPolicy replaces the Q-network (and its target) with a saved network.
func (d *DQN) LoadPolicy(r io.Reader) error {
	m, err := loadPolicyNet(r)
	if err != nil {
		return err
	}
	if m.InDim() != d.cfg.StateDim || m.OutDim() != d.cfg.NumActions {
		return fmt.Errorf("rl: loaded policy is %d→%d, DQN agent expects %d→%d",
			m.InDim(), m.OutDim(), d.cfg.StateDim, d.cfg.NumActions)
	}
	mlp, ok := m.(*nn.MLP)
	if !ok {
		return fmt.Errorf("rl: DQN network must be sequential, got %T", m)
	}
	d.Q = mlp
	d.Target = mlp.Clone()
	d.rewire()
	return nil
}

// Argmax returns the index of a row's maximum element — the greedy action
// over one Q-value row, with Act's first-max tie-breaking.
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
