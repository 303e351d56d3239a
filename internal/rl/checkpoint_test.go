package rl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
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

// savePolicy returns what tr.SavePolicy writes.
func savePolicy(t *testing.T, tr interface{ SavePolicy(w io.Writer) error }) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.SavePolicy(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointRejectsCorruption flips kind/truncation/weight corruption on
// a real policy checkpoint and checks LoadPolicy fails with the typed error.
func TestCheckpointRejectsCorruption(t *testing.T) {
	cfg := DDPGConfig{StateDim: 3, ActionDim: 2, actorHidden: []int{6}, criticHidden: [3]int{6, 4, 3}, Seed: 1}
	d, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewDDPG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	load := func(data []byte) error { return dst.LoadPolicy(bytes.NewReader(data)) }
	good := savePolicy(t, d)
	if err := load(good); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	t.Run("wrong kind", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[6] = 99
		if err := load(b); !errors.Is(err, ckpt.ErrKind) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := load(good[:len(good)-20]); !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("payload corruption fails crc", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)/2] ^= 0x10
		if err := load(b); !errors.Is(err, ckpt.ErrChecksum) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("non-finite weights", func(t *testing.T) {
		d2, err := NewDDPG(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d2.Actor.Params()[0].W[0] = math.Inf(1)
		if err := load(savePolicy(t, d2)); !errors.Is(err, ckpt.ErrNonFinite) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		payload, err := ckpt.OpenKind(good, ckpt.KindPolicy)
		if err != nil {
			t.Fatal(err)
		}
		bloated := ckpt.Seal(ckpt.KindPolicy, append(append([]byte(nil), payload...), 0xAA))
		if err := load(bloated); !errors.Is(err, ckpt.ErrMalformed) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestCheckpointRoundTripProperty is the randomized identity property of the
// policy checkpoint: over 100 random seeds (rotating learner variants,
// varying training steps), SavePolicy → LoadPolicy into a learner of another
// seed → SavePolicy reproduces the exact bytes, and both act alike.
func TestCheckpointRoundTripProperty(t *testing.T) {
	probe := []float64{0.2, 0.4, 0.6, 0.8}
	for seed := int64(0); seed < 100; seed++ {
		c := learnerCases[int(seed)%len(learnerCases)]
		rng := sim.NewRNG(sim.SubSeed(seed, "ckpt-prop"))
		steps := 1 + rng.Intn(6)
		tr := c.build(t, 4, true, seed)
		rp := NewReplay(32, sim.NewRNG(sim.SubSeed(seed, "prop-replay")))
		fillReplay(rp, rng, 32, 4, c.actionDim(), c.discrete())
		batch := make([]Transition, 4)
		for i := 0; i < steps; i++ {
			rp.SampleInto(batch)
			tr.update(batch)
		}
		first := savePolicy(t, tr)
		tr2 := c.build(t, 4, true, seed+1000)
		if err := tr2.LoadPolicy(bytes.NewReader(first)); err != nil {
			t.Fatalf("seed %d (%s): load: %v", seed, c.name, err)
		}
		if !bytes.Equal(first, savePolicy(t, tr2)) {
			t.Fatalf("seed %d (%s): re-saved policy differs", seed, c.name)
		}
		want, got := tr.act(probe), tr2.act(probe)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d (%s): action[%d] %v != %v", seed, c.name, i, got[i], want[i])
			}
		}
	}
}

// TestRetiredKindsFailLoudly: kinds 2–5 held trainer state (DDPG, TD3, SAC,
// DQN) in older builds, sealed at versions 1 and 2. A frame carrying one is
// refused with ErrKind by the container, by LoadPolicy and by the registry,
// so a trainer checkpoint from an older build never loads as a policy.
func TestRetiredKindsFailLoudly(t *testing.T) {
	d, err := NewDDPG(DDPGConfig{StateDim: 3, ActionDim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	policy := savePolicy(t, d)
	for kind := byte(2); kind <= 5; kind++ {
		for version := byte(1); version <= 2; version++ {
			t.Run(fmt.Sprintf("kind %d version %d", kind, version), func(t *testing.T) {
				frame := append([]byte(nil), policy...)
				frame[4], frame[5], frame[6] = version, 0, kind
				if _, _, err := ckpt.Open(frame); !errors.Is(err, ckpt.ErrKind) {
					t.Errorf("ckpt.Open: %v, want ErrKind", err)
				}
				if err := d.LoadPolicy(bytes.NewReader(frame)); !errors.Is(err, ckpt.ErrKind) {
					t.Errorf("LoadPolicy: %v, want ErrKind", err)
				}
				dir := t.TempDir()
				if err := ckpt.WriteFileAtomic(filepath.Join(dir, "v0001.ckpt"), frame); err != nil {
					t.Fatal(err)
				}
				reg, err := ckpt.OpenRegistry(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := reg.Get(1); !errors.Is(err, ckpt.ErrKind) {
					t.Errorf("Registry.Get: %v, want ErrKind", err)
				}
				if _, err := reg.Put(frame); !errors.Is(err, ckpt.ErrKind) {
					t.Errorf("Registry.Put: %v, want ErrKind", err)
				}
			})
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
