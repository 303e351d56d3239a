package agent

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// vecTestConfig is a small-but-real training configuration: enough
// boundaries past warmup that gradient updates run, and a replay capacity
// small enough that the shared write cursor wraps.
func vecTestConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Train:       true,
		LongTime:    500 * sim.Millisecond,
		WarmupSteps: 4,
		batchSize:   16,
		replayCap:   48,
	}
}

func vecTrainConfig(envs, workers int) TrainVectorConfig {
	return TrainVectorConfig{
		Envs:       envs,
		Workers:    workers,
		Episodes:   2,
		EpisodeLen: 5 * sim.Second,
		Server:     server.Config{App: smallApp(), Seed: 21, DiscardLatencies: true},
		Trace:      testTrace(),
	}
}

// trainKind vector-trains a fresh agent of one kind and returns its loop
// state and per-episode stats.
func trainKind(t *testing.T, build func(*testing.T) VectorPolicy, envs, workers int) (*core, []EpisodeStats) {
	t.Helper()
	pol := build(t)
	vt, err := NewVectorTrainer(pol, vecTrainConfig(envs, workers))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := vt.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vt.Experience() == 0 {
		t.Fatal("no experience collected")
	}
	return pol.agentCore(), stats
}

// trainVector is trainKind for the paper's agent.
func trainVector(t *testing.T, envs, workers int) (*core, []EpisodeStats) {
	t.Helper()
	return trainKind(t, agentKinds[0].vec, envs, workers)
}

func TestVectorTrainerWorkerEquivalence(t *testing.T) {
	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			c1, stats1 := trainKind(t, kind.vec, 8, 1)
			c8, stats8 := trainKind(t, kind.vec, 8, 8)

			// Shared replay pool: same cursor, same contents, same order.
			if c1.replay.Pushed() != c8.replay.Pushed() {
				t.Fatalf("write cursor differs: workers=1 %d, workers=8 %d",
					c1.replay.Pushed(), c8.replay.Pushed())
			}
			if c1.replay.Pushed() <= uint64(c1.replay.Len()) {
				t.Fatalf("replay never wrapped (pushed %d, retained %d) — config too small to exercise the cursor",
					c1.replay.Pushed(), c1.replay.Len())
			}
			if c1.replay.Len() != c8.replay.Len() {
				t.Fatalf("replay length differs: %d vs %d", c1.replay.Len(), c8.replay.Len())
			}
			for i := 0; i < c1.replay.Len(); i++ {
				a, b := c1.replay.At(i), c8.replay.At(i)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("replay transition %d differs:\n  workers=1: %+v\n  workers=8: %+v", i, a, b)
				}
			}

			// Final weights byte-identical.
			var w1, w8 bytes.Buffer
			if err := c1.SavePolicy(&w1); err != nil {
				t.Fatal(err)
			}
			if err := c8.SavePolicy(&w8); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w1.Bytes(), w8.Bytes()) {
				t.Fatal("final policy weights differ between worker counts")
			}

			// Episode stats identical too (returns, losses, aggregates).
			if !reflect.DeepEqual(stats1, stats8) {
				t.Fatalf("episode stats differ:\n  workers=1: %+v\n  workers=8: %+v", stats1, stats8)
			}
			for _, st := range stats1 {
				if math.IsNaN(st.Return) || math.IsInf(st.Return, 0) {
					t.Fatalf("non-finite return: %+v", st)
				}
			}

			// And the shared learner learned (all cores, 4 envs).
			c, stats := trainKind(t, kind.vec, 4, 0)
			if len(stats) != 2 {
				t.Fatalf("episodes = %d, want 2", len(stats))
			}
			// Past warmup with a full replay, boundary learning must have run.
			if c.CriticLoss == 0 {
				t.Error("critic loss never recorded — vecLearn did not update")
			}
			if stats[1].CriticLoss != c.CriticLoss {
				t.Errorf("stats loss %v != policy loss %v", stats[1].CriticLoss, c.CriticLoss)
			}
			// 4 envs × 2 episodes × 10 boundaries, minus the unpushed first
			// boundary of each (env, episode): 72 transitions.
			if got := c.Experience(); got != 72 {
				t.Errorf("experience = %d, want 72", got)
			}
		})
	}
}

// vecTestDQNConfig is the value-based counterpart of vecTestConfig: a small
// pool that wraps within the vector tests' runs.
func vecTestDQNConfig(double bool) DQNPowerConfig {
	return DQNPowerConfig{
		Seed:   22,
		double: double,
		Train:  true,
		loop: Config{
			LongTime:    500 * sim.Millisecond,
			WarmupSteps: 3,
			batchSize:   8,
			replayCap:   32,
		},
	}
}

func vecTestDQN(t *testing.T) *DQNPower {
	t.Helper()
	dq, err := NewDQNPower(vecTestDQNConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	return dq
}

// TestVectorTrainerClassAwareState trains an agent whose state carries the
// per-class dims (StateDim + 2·Classes wide), on a homogeneous server — where
// they stay zero — and on a two-class topology.
func TestVectorTrainerClassAwareState(t *testing.T) {
	hetero := cpu.DefaultHetero(2, 2)
	for _, tc := range []struct {
		name string
		topo *cpu.Topology
	}{{"homogeneous", nil}, {"two-class", &hetero}} {
		t.Run(tc.name, func(t *testing.T) {
			train := func(workers int) string {
				cfg := vecTestConfig(30)
				cfg.Classes = 2
				dp, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tcfg := vecTrainConfig(2, workers)
				tcfg.Server.Topology = tc.topo
				vt, err := NewVectorTrainer(dp, tcfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := vt.Train(context.Background()); err != nil {
					t.Fatal(err)
				}
				if dp.CriticLoss == 0 {
					t.Error("critic loss never recorded — the learner never updated")
				}
				last := dp.replay.At(dp.replay.Len() - 1).NextState
				if len(last) != StateDim+4 {
					t.Fatalf("stored state is %d wide, want %d", len(last), StateDim+4)
				}
				classDims := 0.0
				for _, v := range last[StateDim:] {
					classDims += v
				}
				if (classDims != 0) != (tc.topo != nil) {
					t.Errorf("per-class dims %v on a %s server", last[StateDim:], tc.name)
				}
				return vecDigest(t, dp, dp.replay)
			}
			if w1, w2 := train(1), train(2); w1 != w2 {
				t.Errorf("policy and replay differ between worker counts: %s vs %s", w1, w2)
			}
		})
	}
}

func TestVectorTrainerValidation(t *testing.T) {
	dp, err := New(vecTestConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVectorTrainer(dp, TrainVectorConfig{}); err == nil {
		t.Error("missing trace accepted")
	}
	cfg := vecTrainConfig(1, 1)
	cfg.Envs = -2
	if _, err := NewVectorTrainer(dp, cfg); err == nil {
		t.Error("negative env count accepted")
	}
	cfg = vecTrainConfig(1, 1)
	cfg.Episodes = -1
	if _, err := NewVectorTrainer(dp, cfg); err == nil {
		t.Error("negative episode count accepted")
	}
}

// vecDigest fingerprints everything vector training produces that a later
// run could depend on: the exported policy, then the shared replay pool's
// contents in logical age order (every field of every stored transition as
// IEEE bits) and its write cursor.
func vecDigest(t *testing.T, pol interface{ SavePolicy(io.Writer) error }, rp *rl.Replay) string {
	t.Helper()
	var policy bytes.Buffer
	if err := pol.SavePolicy(&policy); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	put := func(vs ...float64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for i := 0; i < rp.Len(); i++ {
		tr := rp.At(i)
		put(tr.State...)
		put(tr.Action...)
		put(tr.Reward)
		put(tr.NextState...)
		if tr.Done {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, rp.Pushed())
	h := sha256.New()
	h.Write(policy.Bytes())
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// The digests below pin the strictly serial boundary loop (observe, act,
// learn, then advance — the commit before the learner was moved beside the
// environments' next segment), on E=4, 2-episode runs whose 72 pushes wrap
// the 48- and 32-slot pools. The pipelined trainer must reproduce them at any
// worker count. They were re-captured when the replay half stopped hashing
// the replay codec's bytes, on a tree where the earlier constants, taken
// from the serial loop, still held.
const (
	serialLoopDigestDDPG = "198f0cba609a60f9bce542f32b5caadee8e5054a7ee73eba5969d5e3be2a015b"
	serialLoopDigestDQN  = "02db257bab23034ffce44d54963566cfe322a3e882cd2dedbaada50d739aee35"
)

func TestVectorTrainerMatchesSerialLoopDigest(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		dp, _ := trainVector(t, 4, workers)
		if got := vecDigest(t, dp, dp.replay); got != serialLoopDigestDDPG {
			t.Errorf("DDPG workers=%d: digest %s, want %s", workers, got, serialLoopDigestDDPG)
		}

		dq := vecTestDQN(t)
		vt, err := NewVectorTrainer(dq, vecTrainConfig(4, workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vt.Train(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := vecDigest(t, dq, dq.replay); got != serialLoopDigestDQN {
			t.Errorf("DQN workers=%d: digest %s, want %s", workers, got, serialLoopDigestDQN)
		}
	}
}

// TestVectorTrainerJoinsLearnerBeforeReturning aborts training two ways —
// the context cancelled from inside an environment's segment while the learn
// unit runs beside it, and an OnEpisode error — and immediately reads and
// retrains the owner. Under -race this fails if a learn unit can outlive
// Train's return.
func TestVectorTrainerJoinsLearnerBeforeReturning(t *testing.T) {
	dp, err := New(vecTestConfig(27))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hookErr := errors.New("hook refused")
	failHook := true
	cfg := vecTrainConfig(4, 8)
	// The server calls Interference from inside the running segments, so the
	// cancellation lands mid-phase, past warmup, at a fixed virtual time.
	cfg.Server.Interference = func(now sim.Time) float64 {
		if now >= 3500*sim.Millisecond {
			cancel()
		}
		return 0
	}
	cfg.OnEpisode = func(int, EpisodeStats) error {
		if failHook {
			return hookErr
		}
		return nil
	}
	vt, err := NewVectorTrainer(dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reuse := func(step string) {
		t.Helper()
		if err := dp.SavePolicy(io.Discard); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	stats, err := vt.Train(ctx)
	if !errors.Is(err, context.Canceled) || len(stats) != 0 {
		t.Fatalf("cancelled mid-episode: %d episodes, err %v", len(stats), err)
	}
	if dp.CriticLoss == 0 {
		t.Fatal("cancelled before any update ran — no learn unit was ever in flight")
	}
	reuse("after cancellation")

	stats, err = vt.Train(context.Background())
	if !errors.Is(err, hookErr) || len(stats) != 1 {
		t.Fatalf("failing hook: %d episodes, err %v", len(stats), err)
	}
	reuse("after hook error")

	failHook = false
	stats, err = vt.Train(context.Background())
	if err != nil || len(stats) != cfg.Episodes {
		t.Fatalf("retrain on the same owner: %d episodes, err %v", len(stats), err)
	}
}

// allocatedBy reports the bytes fn allocates (cumulative, so garbage counts).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExperiencePathAllocatesOnUse pins what construction may cost with the
// default 100 000-slot pool (8.8 MB if reserved up front): shells borrow the
// owner's learner and pool instead of building their own, and a pool nobody
// pushes to owns no transition memory.
func TestExperiencePathAllocatesOnUse(t *testing.T) {
	const limit = 1 << 20
	owner, err := New(Config{Seed: 28, Train: true})
	if err != nil {
		t.Fatal(err)
	}
	var policy bytes.Buffer
	if err := owner.SavePolicy(&policy); err != nil {
		t.Fatal(err)
	}

	if got := allocatedBy(func() {
		if _, err := NewVectorTrainer(owner, vecTrainConfig(8, 2)); err != nil {
			t.Fatal(err)
		}
	}); got >= limit {
		t.Errorf("NewVectorTrainer(E=8) allocated %d bytes beyond its owner, want < %d", got, limit)
	}

	if got := allocatedBy(func() {
		dp, err := New(Config{Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.LoadPolicy(bytes.NewReader(policy.Bytes())); err != nil {
			t.Fatal(err)
		}
	}); got >= limit {
		t.Errorf("inference-only New + LoadPolicy allocated %d bytes, want < %d", got, limit)
	}
}
