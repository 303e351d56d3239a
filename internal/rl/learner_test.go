package rl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// learnerCase is one row of the table the learner tests share: every variant
// of the two trainers. The per-algorithm copies of a test are rows here.
type learnerCase struct {
	name string
	// ac builds an actor–critic variant; nil selects DQN (DDQN with double).
	ac      func(DDPGConfig) (*ActorCritic, error)
	twoHead bool
	double  bool
	// digest is learnerDigest's value captured on the commit before the
	// three actor–critic learners became one (PR 21's parent).
	digest string
}

var learnerCases = []learnerCase{
	{name: "ddpg", ac: NewDDPG, digest: "bee6959b6aea6b9cc16d29461968d40437e97929be6edf78706cbaa17ab5be03"},
	{name: "ddpg-twohead", ac: NewDDPG, twoHead: true, digest: "3b650843970b4ed8371333bbf432098801d05f69c6247dc50c62fa427cfb11dc"},
	{name: "td3", ac: NewTD3, digest: "596b6538a29d45a6e1b86ef70acb0880fff1c79f870e4163fab4c4a65923ac6f"},
	{name: "sac", ac: NewSAC, digest: "8a79d77361055f40efbc66074c8e252ac3ea47f12dbd8eba563e1a44009eb076"},
	{name: "dqn", digest: "fc2c7a66b95182a5556ced8aef171da170b30474e1b4da5849a9f477297b548a"},
	{name: "ddqn", double: true, digest: "6fe54a9c4d4356d21a048fc3ef7d60fa13810a3a3828fe6e3b45377d0a50fc62"},
}

const (
	caseActionDim  = 2 // continuous rows
	caseNumActions = 4 // discrete rows
)

// discrete reports whether the row's actions are indices (DQN, DDQN).
func (c learnerCase) discrete() bool { return c.ac == nil }

// actionDim is what fillReplay/mkTransitions need to know about the row's
// action space.
func (c learnerCase) actionDim() int {
	if c.discrete() {
		return caseNumActions
	}
	return caseActionDim
}

// build constructs the row's learner over stateDim-wide states; small swaps
// the paper's 32-24-16 networks for 8-6(-4) ones.
func (c learnerCase) build(t testing.TB, stateDim int, small bool, seed int64) trainer {
	t.Helper()
	var tr trainer
	var err error
	if c.discrete() {
		cfg := DQNConfig{StateDim: stateDim, NumActions: caseNumActions, Double: c.double, Seed: seed}
		if small {
			cfg.hidden = []int{8, 6}
		}
		var d *DQN
		d, err = NewDQN(cfg)
		tr = dqnTrainer{d}
	} else {
		cfg := DDPGConfig{StateDim: stateDim, ActionDim: caseActionDim, TwoHeadActor: c.twoHead, Seed: seed}
		if small {
			cfg.actorHidden, cfg.criticHidden = []int{8, 6}, [3]int{8, 6, 4}
		}
		var l *ActorCritic
		l, err = c.ac(cfg)
		tr = acTrainer{l}
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return tr
}

// trainer is the surface the shared tests drive: both learners behind one
// (critic, actor) loss pair, plus the white-box views the assertions need.
type trainer interface {
	update(batch []Transition) (critic, actor float64)
	reference(batch []Transition) (critic, actor float64)
	// nets lists every live and target network's layers in a fixed order.
	nets() [][]*nn.Dense
	opts() []*nn.Adam
	act(state []float64) []float64
	Divergences() uint64
	SavePolicy(w io.Writer) error
	LoadPolicy(r io.Reader) error
}

type acTrainer struct{ *ActorCritic }

func (a acTrainer) update(b []Transition) (float64, float64)    { return a.Update(b) }
func (a acTrainer) reference(b []Transition) (float64, float64) { return a.updatePerSample(b) }
func (a acTrainer) act(state []float64) []float64               { return a.Act(state) }
func (a acTrainer) opts() []*nn.Adam                            { return append([]*nn.Adam{a.actorOpt}, a.criticOpts...) }
func (a acTrainer) nets() [][]*nn.Dense {
	out := [][]*nn.Dense{a.Actor.Params()}
	if a.ActorTarget != nil {
		out = append(out, a.ActorTarget.Params())
	}
	for _, set := range [][]*Critic{a.Critics, a.Targets} {
		for _, c := range set {
			out = append(out, c.Layers())
		}
	}
	return out
}

type dqnTrainer struct{ *DQN }

func (d dqnTrainer) update(b []Transition) (float64, float64)    { return d.Update(b), 0 }
func (d dqnTrainer) reference(b []Transition) (float64, float64) { return d.updatePerSample(b), 0 }
func (d dqnTrainer) act(state []float64) []float64               { return []float64{float64(d.Act(state))} }
func (d dqnTrainer) opts() []*nn.Adam                            { return []*nn.Adam{d.opt} }
func (d dqnTrainer) nets() [][]*nn.Dense                         { return [][]*nn.Dense{d.Q.Layers, d.Target.Layers} }

// learnerDigest is format-independent: SHA-256 over the IEEE bits of the
// (critic, actor) loss pair of each of 200 updates from a seeded replay pool,
// then of every live and target W and B in nets order. A NaN (TD3's actor
// loss on a delayed step) hashes as one canonical pattern.
func learnerDigest(c learnerCase, tr trainer) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		bits := math.Float64bits(x)
		if math.IsNaN(x) {
			bits = 0x7FF8000000000001
		}
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	rp := NewReplay(512, sim.NewRNG(sim.SubSeed(21, "digest-replay")))
	fillReplay(rp, sim.NewRNG(sim.SubSeed(21, "digest-env")), 512, 6, c.actionDim(), c.discrete())
	batch := make([]Transition, 32)
	for i := 0; i < 200; i++ {
		rp.SampleInto(batch)
		critic, actor := tr.update(batch)
		put(critic)
		put(actor)
	}
	for _, bits := range weightBits(tr) {
		put(math.Float64frombits(bits))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLearnerDigests is the numerics fence of the one-learner refactor: 200
// updates of every variant must land on the weights and losses the three
// separate learners (and DQN before it shared the guard) produced.
func TestLearnerDigests(t *testing.T) {
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.build(t, 6, false, 21)
			if got := learnerDigest(c, tr); got != c.digest {
				t.Errorf("digest %s, want the parent-captured %s", got, c.digest)
			}
			if n := tr.Divergences(); n != 0 {
				t.Errorf("%d divergences on finite data", n)
			}
		})
	}
}

// weightBits flattens every W and B of a trainer to IEEE bit patterns.
func weightBits(tr trainer) []uint64 {
	var out []uint64
	for _, layers := range tr.nets() {
		for _, l := range layers {
			for _, w := range l.W {
				out = append(out, math.Float64bits(w))
			}
			for _, b := range l.B {
				out = append(out, math.Float64bits(b))
			}
		}
	}
	return out
}

// poisons are the pathological transitions TestDivergenceGuard slips into a
// minibatch. A NaN reward reaches the loss through the bootstrap target. A
// NaN state component reaches it through every forward pass — and is the
// operand the batched backward's zero-skip never multiplies: the per-sample
// kernel wrote 0·NaN = NaN into the gradients of inactive units, the batched
// one skips them, and the guard must undo the step either way.
var poisons = []struct {
	name   string
	poison func(tr *Transition)
}{
	{"NaN reward", func(tr *Transition) { tr.Reward = math.NaN() }},
	{"NaN state component", func(tr *Transition) { tr.State[2] = math.NaN() }},
}

// TestDivergenceGuard: a minibatch carrying a poisoned transition must leave
// every live and target weight bit-equal to its pre-update value, count one
// divergence, rebuild the optimizers, and let the next clean update proceed —
// for every trainer, on both an actor step and (TD3) a delayed one, whose
// NaN "no actor loss" must not trip the guard on clean data either.
func TestDivergenceGuard(t *testing.T) {
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.build(t, 6, false, 5)
			rng := sim.NewRNG(6)
			clean := func() []Transition { return mkTransitions(rng, 16, 6, caseActionDim, c.discrete(), caseNumActions) }
			for warm := 0; warm < 3; warm++ {
				tr.update(clean())
			}
			if n := tr.Divergences(); n != 0 {
				t.Fatalf("%d divergences on clean data (a skipped actor step must not count)", n)
			}
			// Two rounds per poison — TD3: one delayed, one actor step.
			rounds := uint64(2 * len(poisons))
			for round := uint64(1); round <= rounds; round++ {
				before := weightBits(tr)
				optsBefore := tr.opts()
				poisoned := clean()
				poisons[(round-1)/2].poison(&poisoned[3])
				if cl, al := tr.update(poisoned); cl != 0 || al != 0 {
					t.Errorf("round %d: rolled-back update reported losses (%v, %v), want zeros", round, cl, al)
				}
				if got := tr.Divergences(); got != round {
					t.Fatalf("round %d: Divergences() = %d", round, got)
				}
				after := weightBits(tr)
				for i := range before {
					if before[i] != after[i] {
						t.Fatalf("round %d: weight %d changed across a rolled-back update", round, i)
					}
				}
				for i, opt := range tr.opts() {
					if opt == optsBefore[i] {
						t.Errorf("round %d: optimizer %d survived the rollback (its moments may carry the NaN)", round, i)
					}
					if opt.MaxGradNorm != maxGradNorm {
						t.Errorf("round %d: rebuilt optimizer %d clips at %v", round, i, opt.MaxGradNorm)
					}
				}
				cl, _ := tr.update(clean())
				if !isFinite(cl) || cl == 0 {
					t.Errorf("round %d: clean update after a rollback reported critic loss %v", round, cl)
				}
				moved := weightBits(tr)
				same := true
				for i := range after {
					same = same && after[i] == moved[i]
				}
				if same {
					t.Errorf("round %d: clean update after a rollback moved no weight", round)
				}
			}
		})
	}
}

// TestGradientsZeroBetweenUpdates pins the invariant that lets no pass of
// Update open by clearing gradients: every backward is followed by its
// optimizer's Step, which leaves the gradients zero, and the policy step's
// critic pass accumulates none. After construction, after every update —
// clean, policy-delayed (TD3's odd steps) and rolled back — and after
// LoadPolicy, every GW and GB of every live network is exactly zero.
func TestGradientsZeroBetweenUpdates(t *testing.T) {
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			gradsZero := func(when string, tr trainer) {
				t.Helper()
				for ni, layers := range tr.nets() {
					for li, l := range layers {
						for _, g := range append(append([]float64(nil), l.GW...), l.GB...) {
							if math.Float64bits(g) != 0 {
								t.Fatalf("%s: network %d layer %d holds a gradient %v", when, ni, li, g)
							}
						}
					}
				}
			}
			tr := c.build(t, 6, false, 9)
			gradsZero("after construction", tr)
			rng := sim.NewRNG(10)
			batch := func() []Transition { return mkTransitions(rng, 16, 6, caseActionDim, c.discrete(), caseNumActions) }
			for step := 1; step <= 4; step++ { // TD3: two delayed, two policy steps
				tr.update(batch())
				gradsZero(fmt.Sprintf("after clean update %d", step), tr)
			}
			for _, p := range poisons {
				for step := 1; step <= 2; step++ {
					poisoned := batch()
					p.poison(&poisoned[3])
					tr.update(poisoned)
					gradsZero(fmt.Sprintf("after rolled-back update %d (%s)", step, p.name), tr)
				}
			}
			if tr.Divergences() != uint64(2*len(poisons)) {
				t.Fatalf("%d divergences, want every poisoned update rolled back", tr.Divergences())
			}

			var policy bytes.Buffer
			if err := tr.SavePolicy(&policy); err != nil {
				t.Fatal(err)
			}
			if err := tr.LoadPolicy(&policy); err != nil {
				t.Fatal(err)
			}
			gradsZero("after LoadPolicy", tr)
			tr.update(batch())
			gradsZero("after an update on the loaded policy", tr)
		})
	}
}

// TestLoadPolicyKeepsGradClip: the optimizer LoadPolicy rebuilds over the
// installed network clips like every other one, so a fault.Rollback into a
// training agent does not resume with an unclipped actor.
func TestLoadPolicyKeepsGradClip(t *testing.T) {
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			src, dst := c.build(t, 6, false, 1), c.build(t, 6, false, 2)
			var buf bytes.Buffer
			if err := src.SavePolicy(&buf); err != nil {
				t.Fatal(err)
			}
			if err := dst.LoadPolicy(&buf); err != nil {
				t.Fatal(err)
			}
			for i, opt := range dst.opts() {
				if opt.MaxGradNorm != maxGradNorm {
					t.Errorf("optimizer %d clips at %v after LoadPolicy, want %v", i, opt.MaxGradNorm, float64(maxGradNorm))
				}
			}
			probe := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.2}
			if want, got := src.act(probe), dst.act(probe); fmt.Sprint(want) != fmt.Sprint(got) {
				t.Errorf("loaded policy acts %v, source %v", got, want)
			}
			// And the guard watches the installed networks, not the replaced ones.
			batch := mkTransitions(sim.NewRNG(3), 8, 6, caseActionDim, c.discrete(), caseNumActions)
			before := weightBits(dst)
			batch[0].Reward = math.Inf(1)
			dst.update(batch)
			dst.update(batch) // TD3: reach an actor step too
			after := weightBits(dst)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("weight %d of the loaded network changed across rolled-back updates", i)
				}
			}
		})
	}
}

// TestConfigErrors: every constructor rejects non-positive dimensions.
func TestConfigErrors(t *testing.T) {
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			newWith := func(stateDim int) error {
				if c.discrete() {
					_, err := NewDQN(DQNConfig{StateDim: stateDim, NumActions: 2 * stateDim, Double: c.double})
					return err
				}
				_, err := c.ac(DDPGConfig{StateDim: stateDim, ActionDim: 2 * stateDim, TwoHeadActor: c.twoHead})
				return err
			}
			if newWith(0) == nil {
				t.Error("zero dims accepted")
			}
			if err := newWith(1); err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
		})
	}
	if _, err := NewSAC(DDPGConfig{StateDim: 2, ActionDim: 2, TwoHeadActor: true}); err == nil {
		t.Error("sac accepted the deterministic two-head topology")
	}
}

// TestNonFiniteFindsEveryNonFiniteValue: the guard's branch-free sweep flags
// a slice exactly when it holds a NaN (either sign, quiet or signalling) or
// ±Inf, at every position of its unrolled body and of its tail, and passes
// every finite extreme: ±0, subnormals, ±MaxFloat64.
func TestNonFiniteFindsEveryNonFiniteValue(t *testing.T) {
	bad := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1)}
	good := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 1, -2.5}
	for n := 0; n <= 9; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = good[i%len(good)]
		}
		if nonFinite(xs)>>63 != 0 {
			t.Fatalf("len %d: finite values %v flagged", n, xs)
		}
		for pos := 0; pos < n; pos++ {
			for _, v := range bad {
				keep := xs[pos]
				xs[pos] = v
				if nonFinite(xs)>>63 == 0 {
					t.Errorf("len %d: %v at %d not flagged", n, v, pos)
				}
				xs[pos] = keep
			}
		}
	}
}
