package rl

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/sim"
)

// fillReplay populates a pool with synthetic transitions. discrete selects
// single-index actions (DQN) instead of continuous vectors.
func fillReplay(rp *Replay, rng *sim.RNG, n, stateDim, actionDim int, discrete bool) {
	for i := 0; i < n; i++ {
		tr := Transition{
			State:     make([]float64, stateDim),
			NextState: make([]float64, stateDim),
			Reward:    rng.Normal(0, 1),
			Done:      rng.Bernoulli(0.05),
		}
		for j := range tr.State {
			tr.State[j] = rng.Float64()
			tr.NextState[j] = rng.Float64()
		}
		if discrete {
			tr.Action = []float64{float64(rng.Intn(actionDim))}
		} else {
			tr.Action = make([]float64, actionDim)
			for j := range tr.Action {
				tr.Action[j] = rng.Float64()
			}
		}
		rp.Push(tr)
	}
}

// loadTrainer reloads a row's checkpoint through the loader for its kind.
func (c learnerCase) loadTrainer(data []byte) (trainer, *Replay, error) {
	if c.discrete() {
		d, rp, err := LoadDQNCheckpoint(data)
		return dqnTrainer{d}, rp, err
	}
	l, rp, err := LoadCheckpoint(data)
	return acTrainer{l}, rp, err
}

// trainStep is one replay-sampled update.
func trainStep(tr trainer, rp *Replay, batch []Transition) {
	rp.SampleInto(batch)
	tr.update(batch)
}

// TestBitwiseResumeEquivalence is the tentpole acceptance test: for every
// trainer, "train N steps → checkpoint → reload in fresh state → train M
// steps" must be bitwise identical to an uninterrupted N+M-step run — every
// weight, optimizer slot, RNG position, replay slot, and emitted action.
func TestBitwiseResumeEquivalence(t *testing.T) {
	const (
		nSteps    = 25
		mSteps    = 15
		batchSize = 8
		replayCap = 64
	)
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			mkReplay := func() *Replay {
				rp := NewReplay(replayCap, sim.NewRNG(sim.SubSeed(99, "resume-replay")))
				fillReplay(rp, sim.NewRNG(sim.SubSeed(99, "resume-env")), replayCap, 4, c.actionDim(), c.discrete())
				return rp
			}
			batch := make([]Transition, batchSize)

			// Uninterrupted N+M run.
			ref := c.build(t, 4, true, 99)
			refRp := mkReplay()
			for i := 0; i < nSteps+mSteps; i++ {
				trainStep(ref, refRp, batch)
			}

			// Interrupted run: N steps, checkpoint, reload, M steps.
			a := c.build(t, 4, true, 99)
			aRp := mkReplay()
			for i := 0; i < nSteps; i++ {
				trainStep(a, aRp, batch)
			}
			b, bRp, err := c.loadTrainer(a.Checkpoint(aRp))
			if err != nil {
				t.Fatalf("loading mid-run checkpoint: %v", err)
			}
			if bRp == nil {
				t.Fatal("checkpoint dropped the replay pool")
			}
			for i := 0; i < mSteps; i++ {
				trainStep(b, bRp, batch)
			}

			// Full-state comparison via checkpoint bytes: covers weights,
			// optimizer moments, counters, RNG positions, and replay.
			want := ref.Checkpoint(refRp)
			got := b.Checkpoint(bRp)
			if !bytes.Equal(want, got) {
				t.Fatalf("resumed state differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
			}

			// And the policy actuates identically.
			probe := []float64{0.2, 0.4, 0.6, 0.8}
			wa, ga := ref.act(probe), b.act(probe)
			for i := range wa {
				if wa[i] != ga[i] {
					t.Fatalf("action[%d]: %v != %v", i, ga[i], wa[i])
				}
			}
		})
	}
}

// TestCheckpointRejectsCorruption flips kind/truncation/weight corruption on
// a real trainer checkpoint and checks for typed failures.
func TestCheckpointRejectsCorruption(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 3, ActionDim: 2, actorHidden: []int{6}, criticHidden: [3]int{6, 4, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := d.Checkpoint(nil)
	if _, _, err := LoadCheckpoint(good); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	t.Run("wrong kind", func(t *testing.T) {
		// Each loader refuses the other trainer's container, and a policy
		// export is no trainer checkpoint at all.
		if _, _, err := LoadDQNCheckpoint(good); !errors.Is(err, ckpt.ErrKind) {
			t.Fatalf("DQN loader on a DDPG checkpoint: got %v", err)
		}
		q, err := NewDQN(DQNConfig{StateDim: 3, NumActions: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var policy bytes.Buffer
		if err := d.SavePolicy(&policy); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"DQN checkpoint": q.Checkpoint(nil), "policy export": policy.Bytes()} {
			if _, _, err := LoadCheckpoint(data); !errors.Is(err, ckpt.ErrKind) {
				t.Fatalf("actor–critic loader on a %s: got %v", name, err)
			}
		}
	})
	t.Run("kind selects the variant", func(t *testing.T) {
		// The payload layout is shared; the kind byte alone says which
		// variant to rebuild. A DDPG payload under a TD3 kind is short one
		// critic pair and must fail as malformed or truncated, not load.
		payload, err := ckpt.OpenKind(good, ckpt.KindDDPG)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = LoadCheckpoint(ckpt.Seal(ckpt.KindTD3, payload))
		if !errors.Is(err, ckpt.ErrMalformed) && !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := LoadCheckpoint(good[:len(good)-20]); err == nil {
			t.Fatal("accepted truncated checkpoint")
		}
	})
	t.Run("payload corruption fails crc", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)/2] ^= 0x10
		if _, _, err := LoadCheckpoint(b); !errors.Is(err, ckpt.ErrChecksum) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("non-finite weights", func(t *testing.T) {
		d2, _ := NewDDPG(DDPGConfig{StateDim: 3, ActionDim: 2, actorHidden: []int{6}, criticHidden: [3]int{6, 4, 3}, Seed: 1})
		d2.Actor.Params()[0].W[0] = math.Inf(1)
		if _, _, err := LoadCheckpoint(d2.Checkpoint(nil)); !errors.Is(err, ckpt.ErrNonFinite) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		payload, err := ckpt.OpenKind(good, ckpt.KindDDPG)
		if err != nil {
			t.Fatal(err)
		}
		bloated := ckpt.Seal(ckpt.KindDDPG, append(append([]byte(nil), payload...), 0xAA))
		if _, _, err := LoadCheckpoint(bloated); !errors.Is(err, ckpt.ErrMalformed) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestCheckpointEncodeAllocFree proves periodic checkpointing does not
// re-introduce allocations into the train step: a steady-state Update plus a
// full encode+seal into reused buffers performs zero heap allocations.
func TestCheckpointEncodeAllocFree(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 6, ActionDim: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplay(128, sim.NewRNG(sim.SubSeed(7, "alloc-replay")))
	fillReplay(rp, sim.NewRNG(sim.SubSeed(7, "alloc-env")), 128, 6, 2, false)
	batch := make([]Transition, 16)
	var enc ckpt.Enc
	var sealed []byte

	// Warm-up: grow every arena and buffer to steady-state capacity.
	for i := 0; i < 3; i++ {
		rp.SampleInto(batch)
		d.Update(batch)
		enc.Reset()
		d.EncodeCheckpoint(&enc, rp)
		sealed = ckpt.SealInto(sealed[:0], ckpt.KindDDPG, enc.Bytes())
	}

	allocs := testing.AllocsPerRun(20, func() {
		rp.SampleInto(batch)
		d.Update(batch)
		enc.Reset()
		d.EncodeCheckpoint(&enc, rp)
		sealed = ckpt.SealInto(sealed[:0], ckpt.KindDDPG, enc.Bytes())
	})
	if allocs != 0 {
		t.Fatalf("train step + checkpoint encode allocated %.1f times per run", allocs)
	}
	if _, _, err := LoadCheckpoint(sealed); err != nil {
		t.Fatalf("sealed checkpoint does not load: %v", err)
	}
}

// TestCheckpointRoundTripProperty is the randomized identity property: over
// 100 random seeds (rotating trainer kinds, varying shapes and steps),
// checkpoint → load → checkpoint must reproduce the exact bytes.
func TestCheckpointRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		c := learnerCases[int(seed)%len(learnerCases)]
		rng := sim.NewRNG(sim.SubSeed(seed, "ckpt-prop"))
		steps := 1 + rng.Intn(6)
		tr := c.build(t, 4, true, seed)
		rp := NewReplay(32, sim.NewRNG(sim.SubSeed(seed, "prop-replay")))
		fillReplay(rp, rng, 32, 4, c.actionDim(), c.discrete())
		batch := make([]Transition, 4)
		for i := 0; i < steps; i++ {
			trainStep(tr, rp, batch)
		}
		first := tr.Checkpoint(rp)
		tr2, rp2, err := c.loadTrainer(first)
		if err != nil {
			t.Fatalf("seed %d (%s): load: %v", seed, c.name, err)
		}
		second := tr2.Checkpoint(rp2)
		if !bytes.Equal(first, second) {
			t.Fatalf("seed %d (%s): re-encoded checkpoint differs", seed, c.name)
		}
	}
}

// TestReplayCodecResumesSampling checks the replay pool's RNG round-trips
// mid-stream: post-restore sample draws match the original exactly.
func TestReplayCodecResumesSampling(t *testing.T) {
	rp := NewReplay(16, sim.NewRNG(5))
	fillReplay(rp, sim.NewRNG(6), 24, 3, 2, false) // overfill to exercise the ring
	dst := make([]Transition, 8)
	rp.SampleInto(dst) // advance the sampler RNG mid-stream

	var e ckpt.Enc
	rp.Encode(&e)
	rp2, err := DecodeReplay(ckpt.NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Len() != rp.Len() {
		t.Fatalf("restored length %d != %d", rp2.Len(), rp.Len())
	}
	dst2 := make([]Transition, 8)
	for round := 0; round < 5; round++ {
		rp.SampleInto(dst)
		rp2.SampleInto(dst2)
		for i := range dst {
			if dst[i].Reward != dst2[i].Reward || dst[i].State[0] != dst2[i].State[0] {
				t.Fatalf("round %d sample %d diverged", round, i)
			}
		}
	}

	// Corrupt geometry must be rejected, and no header field may size an
	// allocation the payload does not back.
	frames := []struct {
		name         string
		capacity     int
		next         int
		full         bool
		n            int
		wantLen      int // decoded length when the frame is accepted
		wantRejected bool
	}{
		{name: "zero capacity", capacity: 0, wantRejected: true},
		{name: "len beyond capacity", capacity: 4, n: 5, wantRejected: true},
		{name: "eviction slot beyond capacity", capacity: 4, next: 4, wantRejected: true},
		{name: "wrapped but not full", capacity: 8, next: 2, full: true, n: 3, wantRejected: true},
		{name: "eviction slot without wrap", capacity: 8, next: 2, n: 3, wantRejected: true},
		{name: "huge capacity, empty pool", capacity: 1 << 40, n: 0, wantLen: 0},
		{name: "huge capacity and len, no transitions", capacity: 1 << 40, n: 1 << 39, wantRejected: true},
	}
	for _, f := range frames {
		e.Reset()
		e.Int(f.capacity)
		e.Int(f.next)
		e.Bool(f.full)
		e.I64(1)
		e.U64(0)
		e.Int(f.n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeReplay(ckpt.NewDec(e.Bytes()))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", f.name, len(e.Bytes()), grew)
		}
		switch {
		case f.wantRejected && !errors.Is(err, ckpt.ErrMalformed) && !errors.Is(err, ckpt.ErrTruncated):
			t.Errorf("%s: got %v, want a malformed or truncated frame error", f.name, err)
		case !f.wantRejected && err != nil:
			t.Errorf("%s: well-formed frame rejected: %v", f.name, err)
		case !f.wantRejected && got.Len() != f.wantLen:
			t.Errorf("%s: decoded length %d, want %d", f.name, got.Len(), f.wantLen)
		}
	}
}

// TestPolicyExportCompat checks every learner exports its policy through the
// same entry point: SavePolicy writes a sealed KindPolicy container and
// LoadPolicy reads it back to the same actions.
func TestPolicyExportCompat(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 4, ActionDim: 2, TwoHeadActor: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := d.SavePolicy(&bin); err != nil {
		t.Fatal(err)
	}
	if k, _, err := ckpt.Open(bin.Bytes()); err != nil || k != ckpt.KindPolicy {
		t.Fatalf("SavePolicy did not write a sealed policy container (kind %v, err %v)", k, err)
	}

	probe := []float64{0.1, 0.2, 0.3, 0.4}
	want := d.Act(probe)
	d2, err := NewDDPG(DDPGConfig{StateDim: 4, ActionDim: 2, TwoHeadActor: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.LoadPolicy(&bin); err != nil {
		t.Fatal(err)
	}
	got := d2.Act(probe)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("loaded policy action[%d] %v != %v", i, got[i], want[i])
		}
	}

	// SAC and DQN share the exported entry point.
	s, err := NewSAC(DDPGConfig{StateDim: 3, ActionDim: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := s.SavePolicy(&sb); err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSAC(DDPGConfig{StateDim: 3, ActionDim: 2, Seed: 9})
	if err := s2.LoadPolicy(&sb); err != nil {
		t.Fatal(err)
	}
	sp := []float64{0.5, 0.1, 0.9}
	sw, sg := s.Act(sp), s2.Act(sp)
	for i := range sw {
		if sw[i] != sg[i] {
			t.Fatalf("SAC loaded policy action[%d] %v != %v", i, sg[i], sw[i])
		}
	}

	q, err := NewDQN(DQNConfig{StateDim: 3, NumActions: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var qb bytes.Buffer
	if err := q.SavePolicy(&qb); err != nil {
		t.Fatal(err)
	}
	q2, _ := NewDQN(DQNConfig{StateDim: 3, NumActions: 4, Seed: 10})
	if err := q2.LoadPolicy(&qb); err != nil {
		t.Fatal(err)
	}
	if q.Act(sp) != q2.Act(sp) {
		t.Fatal("DQN loaded policy disagrees with source")
	}

	// Garbage must be rejected by every loader.
	for _, junk := range [][]byte{nil, []byte("DPCKjunk"), []byte("{\"broken\":")} {
		if err := q2.LoadPolicy(bytes.NewReader(junk)); err == nil {
			t.Fatalf("DQN loaded junk %q", junk)
		}
	}
}
