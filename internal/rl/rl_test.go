package rl

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/sim"
)

func TestReplayPushSample(t *testing.T) {
	rp := NewReplay(4, sim.NewRNG(1))
	for i := 0; i < 6; i++ {
		rp.Push(Transition{Reward: float64(i)})
	}
	if rp.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (capacity)", rp.Len())
	}
	// Oldest entries (0, 1) must have been evicted.
	batch := rp.Sample(100)
	for _, tr := range batch {
		if tr.Reward < 2 {
			t.Fatalf("sampled evicted transition with reward %v", tr.Reward)
		}
	}
}

func TestReplayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewReplay(0, sim.NewRNG(1))
}

func TestReplayEmptySamplePanics(t *testing.T) {
	rp := NewReplay(4, sim.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Error("empty sample did not panic")
		}
	}()
	rp.Sample(1)
}

func TestGaussianNoiseStats(t *testing.T) {
	n := NewGaussianNoise(0.3, 1.0, sim.NewRNG(2))
	var sum, sum2 float64
	const k = 50000
	for i := 0; i < k; i++ {
		v := n.Sample(1)[0]
		sum += v
		sum2 += v * v
	}
	mean := sum / k
	std := math.Sqrt(sum2/k - mean*mean)
	if math.Abs(mean-0.3) > 0.02 {
		t.Errorf("noise mean %v, want 0.3 (paper default)", mean)
	}
	if math.Abs(std-1.0) > 0.02 {
		t.Errorf("noise std %v, want 1.0", std)
	}
}

func TestDecayedNoiseShrinks(t *testing.T) {
	d := &DecayedNoise{
		Inner: NewGaussianNoise(0, 1, sim.NewRNG(4)),
		Scale: 1, Decay: 0.9, Floor: 0.1,
	}
	for i := 0; i < 100; i++ {
		d.Sample(1)
	}
	if d.Scale != 0.1 {
		t.Errorf("Scale = %v, want floor 0.1", d.Scale)
	}
}

func TestClip01(t *testing.T) {
	a := Clip01([]float64{-0.5, 0.5, 1.5, math.NaN()})
	want := []float64{0, 0.5, 1, 0}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("Clip01[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestCriticGradCheck(t *testing.T) {
	rng := sim.NewRNG(5)
	c := NewCritic(3, 2, [3]int{6, 5, 4}, rng)
	s := []float64{0.2, -0.4, 0.7}
	a := []float64{0.5, 0.9}

	c.ZeroGrad()
	c.Forward(s, a)
	ds, da := c.Backward(1)
	ds, da = append([]float64(nil), ds...), append([]float64(nil), da...)

	// The gradients checked numerically below come from the per-sample
	// reference; the batched path the learners run must agree with it bit
	// for bit (it computes no dQ/ds: nobody reads one).
	bitEqSlice(t, "Q", c.ForwardBatch(s, a, 1), []float64{c.Forward(s, a)})
	bitEqSlice(t, "dQ/da", c.ActionGradBatch([]float64{1}, 1), da)

	const h = 1e-6
	for i := range s {
		sp := append([]float64(nil), s...)
		sm := append([]float64(nil), s...)
		sp[i] += h
		sm[i] -= h
		num := (c.Forward(sp, a) - c.Forward(sm, a)) / (2 * h)
		if math.Abs(num-ds[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dQ/ds[%d]: analytic %v numerical %v", i, ds[i], num)
		}
	}
	for i := range a {
		ap := append([]float64(nil), a...)
		am := append([]float64(nil), a...)
		ap[i] += h
		am[i] -= h
		num := (c.Forward(s, ap) - c.Forward(s, am)) / (2 * h)
		if math.Abs(num-da[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dQ/da[%d]: analytic %v numerical %v", i, da[i], num)
		}
	}
	// Weight gradients, spot-check the concat layer.
	c.ZeroGrad()
	c.Forward(s, a)
	c.Backward(1)
	l2 := c.Layers()[1]
	for wi := 0; wi < len(l2.W); wi += 7 {
		old := l2.W[wi]
		l2.W[wi] = old + h
		up := c.Forward(s, a)
		l2.W[wi] = old - h
		down := c.Forward(s, a)
		l2.W[wi] = old
		num := (up - down) / (2 * h)
		if math.Abs(num-l2.GW[wi]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("l2 dQ/dW[%d]: analytic %v numerical %v", wi, l2.GW[wi], num)
		}
	}
}

func TestCriticCloneAndSoftUpdate(t *testing.T) {
	rng := sim.NewRNG(6)
	c := NewCritic(2, 1, [3]int{4, 4, 4}, rng)
	clone := c.Clone()
	s, a := []float64{0.1, 0.2}, []float64{0.3}
	if c.Forward(s, a) != clone.Forward(s, a) {
		t.Error("clone output differs")
	}
	c.Layers()[0].W[0] += 1
	if c.Forward(s, a) == clone.Forward(s, a) {
		t.Error("clone shares storage")
	}
	// Repeated soft updates converge to src.
	for i := 0; i < 2000; i++ {
		clone.SoftUpdateFrom(c, 0.05)
	}
	if math.Abs(c.Forward(s, a)-clone.Forward(s, a)) > 1e-6 {
		t.Error("soft update did not converge")
	}
}

func TestDDPGConfigDefaults(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 8, ActionDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: actor hidden layers 32, 24, 16 → 8→32→24→16→2.
	if got := len(d.Actor.Params()); got != 4 {
		t.Errorf("actor layers = %d, want 4", got)
	}
	if n := d.NumParams(); n < 1000 || n > 3000 {
		t.Errorf("actor params = %d, want ~1.5-2k (paper: 2096)", n)
	}
	a := d.Act(make([]float64, 8))
	if len(a) != 2 {
		t.Fatalf("action dim = %d", len(a))
	}
	for _, v := range a {
		if v < 0 || v > 1 {
			t.Errorf("action %v outside [0,1]", v)
		}
	}
}

func TestDDPGActNoisyClipped(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 2, ActionDim: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	noise := NewGaussianNoise(0.3, 1.0, sim.NewRNG(7))
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		act := d.ActNoisy([]float64{clampUnit(a), clampUnit(b)}, noise)
		for _, v := range act {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampUnit(x float64) float64 { return math.Mod(math.Abs(x), 1) }

// toyEnv is a 1-step continuous-control problem: the optimal action is a
// known function of the state, and reward is the negative squared distance
// to it. A correct DDPG implementation learns it quickly.
func toyOptimal(s float64) float64 { return 0.2 + 0.6*s }

func toyReward(s, a float64) float64 {
	d := a - toyOptimal(s)
	return 1 - 4*d*d
}

func TestDDPGLearnsToyControl(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 1, ActionDim: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	rp := NewReplay(5000, rng.Stream("replay"))
	noise := NewGaussianNoise(0, 0.3, rng.Stream("noise"))

	for step := 0; step < 3000; step++ {
		s := []float64{rng.Float64()}
		var a []float64
		if step < 200 {
			a = []float64{rng.Float64()}
		} else {
			a = d.ActNoisy(s, noise)
		}
		r := toyReward(s[0], a[0])
		rp.Push(Transition{State: s, Action: a, Reward: r, NextState: []float64{rng.Float64()}, Done: true})
		if step >= 200 {
			d.Update(rp.Sample(64))
		}
	}
	// Policy should be close to optimal across the state space.
	var worst float64
	for s := 0.05; s < 1; s += 0.1 {
		a := d.Act([]float64{s})[0]
		if diff := math.Abs(a - toyOptimal(s)); diff > worst {
			worst = diff
		}
	}
	if worst > 0.15 {
		t.Errorf("DDPG policy error %v, want < 0.15", worst)
	}
}

func TestDDPGPolicySaveLoad(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 3, ActionDim: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDDPG(DDPGConfig{StateDim: 3, ActionDim: 2, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.LoadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	s := []float64{0.1, 0.5, 0.9}
	a1, a2 := d.Act(s), d2.Act(s)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("loaded policy differs from saved")
		}
	}
	// Shape mismatch rejected.
	var buf2 bytes.Buffer
	if err := d.SavePolicy(&buf2); err != nil {
		t.Fatal(err)
	}
	d3, _ := NewDDPG(DDPGConfig{StateDim: 4, ActionDim: 2})
	if err := d3.LoadPolicy(&buf2); err == nil {
		t.Error("mismatched policy accepted")
	}
}

func TestDQNLearnsToyControl(t *testing.T) {
	for _, double := range []bool{false, true} {
		const nActions = 11
		d, err := NewDQN(DQNConfig{StateDim: 1, NumActions: nActions, Seed: 13, Double: double})
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(13)
		rp := NewReplay(5000, rng.Stream("replay"))
		for step := 0; step < 2500; step++ {
			s := []float64{rng.Float64()}
			eps := math.Max(0.05, 1-float64(step)/1500)
			ai := d.ActEpsilonGreedy(s, eps)
			a := float64(ai) / (nActions - 1)
			r := toyReward(s[0], a)
			rp.Push(Transition{State: s, Action: []float64{float64(ai)}, Reward: r,
				NextState: []float64{rng.Float64()}, Done: true})
			if step >= 100 {
				d.Update(rp.Sample(32))
			}
		}
		var worst float64
		for s := 0.05; s < 1; s += 0.1 {
			a := float64(d.Act([]float64{s})) / (nActions - 1)
			if diff := math.Abs(a - toyOptimal(s)); diff > worst {
				worst = diff
			}
		}
		if worst > 0.2 {
			t.Errorf("double=%v: DQN policy error %v, want < 0.2", double, worst)
		}
	}
}

func TestSACActRange(t *testing.T) {
	s, err := NewSAC(DDPGConfig{StateDim: 4, ActionDim: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		state := []float64{float64(i) / 200, 0.5, -0.3, 0.1}
		for _, a := range [][]float64{s.Act(state), s.SampleAction(state)} {
			for _, v := range a {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("SAC action %v outside [0,1]", v)
				}
			}
		}
	}
}

func TestSACLearnsToyControl(t *testing.T) {
	agent, err := NewSAC(DDPGConfig{StateDim: 1, ActionDim: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(15)
	rp := NewReplay(5000, rng.Stream("replay"))
	for step := 0; step < 3000; step++ {
		s := []float64{rng.Float64()}
		var a []float64
		if step < 200 {
			a = []float64{rng.Float64()}
		} else {
			a = agent.SampleAction(s)
		}
		r := toyReward(s[0], a[0])
		rp.Push(Transition{State: s, Action: a, Reward: r, NextState: []float64{rng.Float64()}, Done: true})
		if step >= 200 {
			agent.Update(rp.Sample(64))
		}
	}
	var worst float64
	for s := 0.05; s < 1; s += 0.1 {
		a := agent.Act([]float64{s})[0]
		if diff := math.Abs(a - toyOptimal(s)); diff > worst {
			worst = diff
		}
	}
	if worst > 0.2 {
		t.Errorf("SAC policy error %v, want < 0.2", worst)
	}
}

func TestDDPGUpdateEmptyBatch(t *testing.T) {
	d, _ := NewDDPG(DDPGConfig{StateDim: 1, ActionDim: 1})
	if cl, al := d.Update(nil); cl != 0 || al != 0 {
		t.Error("empty batch should be a no-op")
	}
}

// Inference-path benchmarks backing Table 2.
func BenchmarkDDPGInference(b *testing.B) {
	d, _ := NewDDPG(DDPGConfig{StateDim: 8, ActionDim: 2, Seed: 1})
	s := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Act(s)
	}
}

func BenchmarkDQNInference(b *testing.B) {
	d, _ := NewDQN(DQNConfig{StateDim: 8, NumActions: 25, Seed: 1})
	s := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Act(s)
	}
}

func BenchmarkSACInference(b *testing.B) {
	agent, _ := NewSAC(DDPGConfig{StateDim: 8, ActionDim: 2, Seed: 1})
	s := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.SampleAction(s)
	}
}

func BenchmarkDDPGUpdateBatch64(b *testing.B) {
	d, _ := NewDDPG(DDPGConfig{StateDim: 8, ActionDim: 2, Seed: 1})
	rng := sim.NewRNG(1)
	rp := NewReplay(1000, rng)
	for i := 0; i < 1000; i++ {
		rp.Push(Transition{
			State:     randVec(rng, 8),
			Action:    randVec(rng, 2),
			Reward:    rng.Float64(),
			NextState: randVec(rng, 8),
		})
	}
	batch := rp.Sample(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(batch)
	}
}

func randVec(rng *sim.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// A two-dimensional toy problem for the two-headed actor: each action
// component has its own optimal line.
func toyOptimal2(s float64) (float64, float64) { return 0.2 + 0.6*s, 0.8 - 0.5*s }

func TestDDPGTwoHeadActorLearnsToyControl(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{
		StateDim: 1, ActionDim: 2, Seed: 21, TwoHeadActor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.NumParams(); n < 1500 || n > 2700 {
		t.Errorf("two-head actor params = %d, want ~2k", n)
	}
	rng := sim.NewRNG(21)
	rp := NewReplay(5000, rng.Stream("replay"))
	noise := NewGaussianNoise(0, 0.3, rng.Stream("noise"))
	for step := 0; step < 3500; step++ {
		s := []float64{rng.Float64()}
		var a []float64
		if step < 200 {
			a = []float64{rng.Float64(), rng.Float64()}
		} else {
			a = d.ActNoisy(s, noise)
		}
		o1, o2 := toyOptimal2(s[0])
		r := 2 - 4*(a[0]-o1)*(a[0]-o1) - 4*(a[1]-o2)*(a[1]-o2)
		rp.Push(Transition{State: s, Action: a, Reward: r, NextState: []float64{rng.Float64()}, Done: true})
		if step >= 200 {
			d.Update(rp.Sample(64))
		}
	}
	var worst float64
	for s := 0.05; s < 1; s += 0.1 {
		a := d.Act([]float64{s})
		o1, o2 := toyOptimal2(s)
		worst = math.Max(worst, math.Max(math.Abs(a[0]-o1), math.Abs(a[1]-o2)))
	}
	if worst > 0.2 {
		t.Errorf("two-head policy error %v, want < 0.2", worst)
	}
}

func TestDDPGTwoHeadRequiresTwoActions(t *testing.T) {
	if _, err := NewDDPG(DDPGConfig{StateDim: 2, ActionDim: 1, TwoHeadActor: true}); err == nil {
		t.Error("two-head actor with 1 action accepted")
	}
}

func TestDDPGTwoHeadSaveLoad(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 8, ActionDim: 2, Seed: 22, TwoHeadActor: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDDPG(DDPGConfig{StateDim: 8, ActionDim: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.LoadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	s := make([]float64, 8)
	a1, a2 := d.Act(s), d2.Act(s)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("loaded two-head policy acts differently")
		}
	}
}

func TestTD3ActRange(t *testing.T) {
	agent, err := NewTD3(DDPGConfig{StateDim: 4, ActionDim: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	noise := NewGaussianNoise(0.3, 1, sim.NewRNG(41))
	for i := 0; i < 100; i++ {
		s := []float64{float64(i) / 100, 0.2, 0.8, 0.5}
		for _, a := range [][]float64{agent.Act(s), agent.ActNoisy(s, noise)} {
			for _, v := range a {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("action %v outside [0,1]", v)
				}
			}
		}
	}
}

func TestTD3LearnsToyControl(t *testing.T) {
	agent, err := NewTD3(DDPGConfig{StateDim: 1, ActionDim: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(42)
	rp := NewReplay(5000, rng.Stream("replay"))
	noise := NewGaussianNoise(0, 0.3, rng.Stream("noise"))
	for step := 0; step < 3000; step++ {
		s := []float64{rng.Float64()}
		var a []float64
		if step < 200 {
			a = []float64{rng.Float64()}
		} else {
			a = agent.ActNoisy(s, noise)
		}
		r := toyReward(s[0], a[0])
		rp.Push(Transition{State: s, Action: a, Reward: r, NextState: []float64{rng.Float64()}, Done: true})
		if step >= 200 {
			agent.Update(rp.Sample(64))
		}
	}
	var worst float64
	for s := 0.05; s < 1; s += 0.1 {
		a := agent.Act([]float64{s})[0]
		if diff := math.Abs(a - toyOptimal(s)); diff > worst {
			worst = diff
		}
	}
	if worst > 0.15 {
		t.Errorf("TD3 policy error %v, want < 0.15", worst)
	}
}

func TestTD3DelayedActorUpdates(t *testing.T) {
	agent, err := NewTD3(DDPGConfig{StateDim: 1, ActionDim: 1, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Transition{{State: []float64{0.5}, Action: []float64{0.5}, Reward: 1, NextState: []float64{0.5}}}
	_, a1 := agent.Update(batch) // update 1: no actor step
	_, a2 := agent.Update(batch) // update 2: actor steps
	if !math.IsNaN(a1) {
		t.Error("actor updated before the policy delay elapsed")
	}
	if math.IsNaN(a2) {
		t.Error("actor not updated at the policy delay")
	}
}
