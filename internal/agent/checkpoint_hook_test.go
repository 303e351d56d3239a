package agent

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/server"
)

// TestOnEpisodeCheckpointsToRegistry wires the training loop's episode hook
// to a checkpoint registry: every episode exports the current policy, Puts
// it, and Promotes it, so a crash at any point leaves a loadable last-good
// version behind.
func TestOnEpisodeCheckpointsToRegistry(t *testing.T) {
	reg, err := ckpt.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := New(Config{Seed: 21, Train: true, WarmupSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	const episodes = 3
	_, err = Train(dp, TrainConfig{
		Episodes: episodes,
		Server:   server.Config{App: smallApp(), Seed: 21, DiscardLatencies: true},
		Trace:    testTrace(),
		OnEpisode: func(ep int, st EpisodeStats) error {
			var buf bytes.Buffer
			if err := dp.SavePolicy(&buf); err != nil {
				return err
			}
			v, err := reg.Put(buf.Bytes())
			if err != nil {
				return err
			}
			return reg.Promote(v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	versions, err := reg.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != episodes {
		t.Fatalf("registry holds %d versions after %d episodes", len(versions), episodes)
	}
	if got := reg.History(); len(got) != episodes {
		t.Fatalf("promotion history %v, want %d entries", got, episodes)
	}

	// The promoted head must load back into a fresh policy.
	_, kind, payload, err := reg.GetCurrent()
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := New(Config{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp2.LoadPolicy(bytes.NewReader(ckpt.Seal(kind, payload))); err != nil {
		t.Fatalf("promoted checkpoint does not load: %v", err)
	}
	s := make([]float64, StateDim)
	a1, a2 := dp.Agent().Act(s), dp2.Agent().Act(s)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("restored policy acts differently from the trained one")
		}
	}
}

// TestOnEpisodeErrorAbortsTraining checks a failing hook stops the loop and
// surfaces the partial stats.
func TestOnEpisodeErrorAbortsTraining(t *testing.T) {
	dp, err := New(Config{Seed: 23, Train: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	stats, err := Train(dp, TrainConfig{
		Episodes: 5,
		Server:   server.Config{App: smallApp(), Seed: 23, DiscardLatencies: true},
		Trace:    testTrace(),
		OnEpisode: func(ep int, st EpisodeStats) error {
			if ep == 1 {
				return fmt.Errorf("checkpoint: %w", boom)
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d episode stats before the abort, want 2", len(stats))
	}
}

// TestLoadPolicyTypedErrors feeds every policy loader files that are not a
// sealed container: each must fail with ckpt's typed error for what is wrong
// with the file — there is no second format to fall back to.
func TestLoadPolicyTypedErrors(t *testing.T) {
	ddpg, err := rl.NewDDPG(rl.DDPGConfig{StateDim: StateDim, ActionDim: ActionDim, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	td3, err := rl.NewTD3(rl.DDPGConfig{StateDim: StateDim, ActionDim: ActionDim, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	dqn, err := rl.NewDQN(rl.DQNConfig{StateDim: StateDim, NumActions: 25, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := New(Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	loaders := []struct {
		name string
		load func(io.Reader) error
	}{
		{"DDPG", ddpg.LoadPolicy}, {"TD3", td3.LoadPolicy}, {"DQN", dqn.LoadPolicy},
		{"DeepPower", dp.LoadPolicy},
	}

	var sealed bytes.Buffer
	if err := ddpg.SavePolicy(&sealed); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), sealed.Bytes()...)
	flipped[0] ^= 0xff
	inputs := []struct {
		name string
		data []byte
		want error
	}{
		{"flipped magic", flipped, ckpt.ErrBadMagic},
		{"3 bytes", sealed.Bytes()[:3], ckpt.ErrTruncated},
		{"empty JSON snapshot", []byte(`{"layers":[]}`), ckpt.ErrTruncated},
		{"JSON snapshot", []byte(`{"layers":[{"in":8,"out":2,"act":0,"w":[0],"b":[0]}]}`), ckpt.ErrBadMagic},
	}
	for _, l := range loaders {
		for _, in := range inputs {
			if err := l.load(bytes.NewReader(in.data)); !errors.Is(err, in.want) {
				t.Errorf("%s.LoadPolicy(%s): got %v, want %v", l.name, in.name, err, in.want)
			}
		}
	}
}
