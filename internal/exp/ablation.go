package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// AblationVariant names one modified DeepPower configuration.
type AblationVariant struct {
	Name  string
	Build func(setup *Setup) (agent.Trainable, error)
}

// AblationVariants are the design-choice ablations DESIGN.md §6 calls out,
// plus the two extensions (value-based agent, sleep states).
var AblationVariants = []AblationVariant{
	{Name: "deeppower", Build: ddpgVariant(func(*agent.Config) {})},
	{Name: "flat-control", Build: ddpgVariant(func(c *agent.Config) { c.Flat = true })},
	{Name: "no-timeout-term", Build: ddpgVariant(func(c *agent.Config) { c.Reward.Beta = -1 })},
	{Name: "no-queue-term", Build: ddpgVariant(func(c *agent.Config) { c.Reward.Gamma = -1 })},
	{Name: "zero-mean-noise", Build: ddpgVariant(func(c *agent.Config) {
		c.NoiseMu = -1e-12
		c.NoiseSigma = 1
	})},
	{Name: "eta-10", Build: ddpgVariant(func(c *agent.Config) { c.Reward.Eta = 10 })},
	{Name: "eta-1000", Build: ddpgVariant(func(c *agent.Config) { c.Reward.Eta = 1000 })},
	{Name: "two-head-actor", Build: ddpgVariant(func(c *agent.Config) { c.DDPG.TwoHeadActor = true })},
	{Name: "td3", Build: ddpgVariant(func(c *agent.Config) { c.Backend = agent.BackendTD3 })},
	{Name: "dqn-power", Build: func(s *Setup) (agent.Trainable, error) {
		return agent.NewDQNPower(agent.DQNPowerConfig{Seed: s.Scale.Seed, Train: true})
	}},
	{Name: "deeppower+c6", Build: func(s *Setup) (agent.Trainable, error) {
		dp, err := agent.New(s.agentConfig())
		if err != nil {
			return nil, err
		}
		return &trainableSleep{baselines.NewSleepWrapper(dp), dp}, nil
	}},
}

// ddpgVariant builds a DeepPower agent with the setup's scale-adapted
// config, mutated by mut.
func ddpgVariant(mut func(*agent.Config)) func(*Setup) (agent.Trainable, error) {
	return func(s *Setup) (agent.Trainable, error) {
		cfg := s.agentConfig()
		mut(&cfg)
		return agent.New(cfg)
	}
}

// trainableSleep adapts a sleep-wrapped DeepPower to the Trainable surface.
type trainableSleep struct {
	*baselines.SleepWrapper
	dp *agent.DeepPower
}

func (t *trainableSleep) SetTrain(train bool) { t.dp.SetTrain(train) }
func (t *trainableSleep) Return() float64     { return t.dp.Return() }

// AblationResult compares DeepPower variants on Xapian.
type AblationResult struct {
	Results map[string]*server.Result
}

// Ablation trains and evaluates each variant (nil = AblationVariants) on
// Xapian. Every
// variant is one self-contained pool work unit that builds its own Setup,
// trains its own agent, and evaluates it — no state is shared across
// concurrently running variants.
func Ablation(ctx context.Context, scale Scale, variants []AblationVariant, workers int) (*AblationResult, error) {
	if variants == nil {
		variants = AblationVariants
	}
	results, err := pool.Map(ctx, variants, workers,
		func(_ context.Context, v AblationVariant, _ int) (*server.Result, error) {
			setup, err := NewSetup(app.Xapian, scale)
			if err != nil {
				return nil, err
			}
			pol, err := v.Build(setup)
			if err != nil {
				return nil, fmt.Errorf("exp: ablation %s: %w", v.Name, err)
			}
			if _, err := agent.Train(pol, agent.TrainConfig{
				Episodes:   scale.TrainEpisodes,
				EpisodeLen: setup.Trace.Period,
				Server:     setup.trainServerConfig(),
				Trace:      setup.Trace,
			}); err != nil {
				return nil, fmt.Errorf("exp: ablation %s training: %w", v.Name, err)
			}
			res, err := setup.EvaluateOn(sim.NewEngine(), pol)
			if err != nil {
				return nil, fmt.Errorf("exp: ablation %s eval: %w", v.Name, err)
			}
			res.Policy = v.Name
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Results: map[string]*server.Result{}}
	for i, v := range variants {
		out.Results[v.Name] = results[i]
	}
	return out, nil
}

// Artifacts renders the comparison table.
func (r *AblationResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("ablation_xapian", r.Table())}
}

// Table renders the comparison.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:   "Ablations — " + app.Xapian,
		Columns: []string{"variant", "power(W)", "p99(ms)", "timeout %", "avg freq"},
	}
	for _, v := range AblationVariants {
		res, ok := r.Results[v.Name]
		if !ok {
			continue
		}
		t.AddRow(v.Name, f2(res.AvgPowerW), f3(res.Latency.P99*1000),
			f3(res.TimeoutRate*100), f2(res.AvgFreqGHz))
	}
	return t
}
