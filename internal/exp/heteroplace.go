package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// heteroplace placement methods: the learned 3-dim agent against three
// static placements of the same 2-class topology.
const (
	PlaceLearned   = "learned"
	PlaceFastOnly  = "fast-only"
	PlaceEffOnly   = "efficient-only"
	PlaceStaticMix = "static-split"
)

// HeteroPlaceMethods is the comparison order.
var HeteroPlaceMethods = []string{PlaceLearned, PlaceFastOnly, PlaceEffOnly, PlaceStaticMix}

// heteroPlaceBudgetFrac is the power budget the comparison is reported
// against: 90% of the topology's all-cores-busy, all-ladder-max draw.
const heteroPlaceBudgetFrac = 0.9

// HeteroPlaceTopology returns the harness's 2-class topology: the profile's
// worker count as fast cores plus the same number of efficiency cores.
func HeteroPlaceTopology(workers int) cpu.Topology {
	return cpu.DefaultHetero(workers, workers)
}

// classDrawW returns each class's all-busy ladder-max core draw.
func classDrawW(m power.Model, t cpu.Topology) []float64 {
	draw := make([]float64, len(t.Classes))
	for i, c := range t.Classes {
		draw[i] = float64(c.Count) * m.CorePowerScaled(c.Ladder.Max, true, c.DynFactor(), c.LeakFactor())
	}
	return draw
}

// classRefPowerW returns the per-class reward normalizers: the classes' max
// draws rescaled to sum to refPowerW, the homogeneous reward's reference
// power. The rescaling keeps the energy term's overall magnitude identical
// to the flat reward — only the attribution across classes changes, so
// wasted watts on the low-power efficiency class are not drowned out by the
// fast class's scale. (Normalizing by raw class draws instead would shrink
// the denominator by an order of magnitude and train agents that trade
// double-digit timeout rates for watts.)
func classRefPowerW(m power.Model, t cpu.Topology, refPowerW float64) []float64 {
	refs := classDrawW(m, t)
	total := 0.0
	for _, d := range refs {
		total += d
	}
	if total <= 0 {
		return refs
	}
	for i := range refs {
		refs[i] *= refPowerW / total
	}
	return refs
}

// HeteroPlaceBudgetW returns the comparison's power budget for a topology.
func HeteroPlaceBudgetW(m power.Model, t cpu.Topology) float64 {
	total := m.Uncore
	for _, d := range classDrawW(m, t) {
		total += d
	}
	return heteroPlaceBudgetFrac * total
}

// placedPolicy pins a fixed per-class thread placement around any trainable
// policy: Init applies the placement after the inner policy's own Init, so
// both training episodes and evaluation run under the static split.
type placedPolicy struct {
	agent.Trainable
	counts []int
	label  string
}

// Name implements server.Policy.
func (p *placedPolicy) Name() string { return p.Trainable.Name() + "+" + p.label }

// Init implements server.Policy.
func (p *placedPolicy) Init(c server.Control) {
	p.Trainable.Init(c)
	c.SetPlacement(p.counts)
}

// heteroPlaceLoadFrac scales the diurnal trace below the fast class's
// capacity so every placement in the ladder can in principle serve the load:
// at Xapian's native 0.85 peak only fast-heavy placements survive and the
// comparison degenerates into a saturation test, while at half load the
// placement choice is the real trade — idle fast silicon leaks watts the
// efficiency class doesn't.
const heteroPlaceLoadFrac = 0.5

// heteroPlaceSetup builds the harness's Setup: the Xapian workload at the
// same looser 20 ms operating point the robustness, policy-lifecycle, and
// fleet experiments use (so the comparison measures placement quality rather
// than raw saturation), with the trace scaled to heteroPlaceLoadFrac.
func heteroPlaceSetup(scale Scale) (*Setup, error) {
	setup, err := NewSetup(app.Xapian, scale)
	if err != nil {
		return nil, err
	}
	setup.Prof.SLA = 20 * sim.Millisecond
	setup.Trace = setup.Trace.Scale(heteroPlaceLoadFrac)
	return setup, nil
}

// HeteroPlaceResult compares placement strategies on one heterogeneous
// server under a shared power budget.
type HeteroPlaceResult struct {
	App     string
	BudgetW float64
	Classes []string
	// Results maps method → result, in HeteroPlaceMethods order.
	Results map[string]*server.Result
}

// HeteroPlace runs the heterogeneous-placement comparison: a Xapian server
// whose worker pool spans fast and efficiency core classes, served by (a) a
// DeepPower agent whose widened action space picks the placement itself and
// (b) the same agent pinned to fast-only, efficient-only, and half-and-half
// static splits. Every method trains its own policy under its own placement
// (the agent must learn the frequency policy that suits where its threads
// sit), and all evaluate on the same diurnal trace against the same power
// budget. Each method is one self-contained pool work unit.
func HeteroPlace(ctx context.Context, scale Scale, workers int) (*HeteroPlaceResult, error) {
	results, err := pool.Map(ctx, HeteroPlaceMethods, workers,
		func(_ context.Context, method string, _ int) (*server.Result, error) {
			res, err := heteroPlaceCell(method, scale)
			if err != nil {
				return nil, fmt.Errorf("exp: heteroplace %s: %w", method, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	setup, err := heteroPlaceSetup(scale)
	if err != nil {
		return nil, err
	}
	topo := HeteroPlaceTopology(setup.Prof.Workers)
	out := &HeteroPlaceResult{
		App:     setup.Prof.Name,
		BudgetW: HeteroPlaceBudgetW(power.DefaultModel(), topo),
		Results: map[string]*server.Result{},
	}
	for _, c := range topo.Classes {
		out.Classes = append(out.Classes, c.Name)
	}
	for i, method := range HeteroPlaceMethods {
		out.Results[method] = results[i]
	}
	return out, nil
}

// heteroPlaceCell trains and evaluates one placement method.
func heteroPlaceCell(method string, scale Scale) (*server.Result, error) {
	setup, err := heteroPlaceSetup(scale)
	if err != nil {
		return nil, err
	}
	topo := HeteroPlaceTopology(setup.Prof.Workers)
	fast, eff := topo.Classes[0].Count, topo.Classes[1].Count

	acfg := setup.agentConfig()
	acfg.Classes = len(topo.Classes)
	acfg.Reward.ClassRefPowerW = classRefPowerW(power.DefaultModel(), topo, agent.RefPowerW)
	if method == PlaceLearned {
		acfg.Placement = true
	}
	dp, err := agent.New(acfg)
	if err != nil {
		return nil, err
	}
	var pol agent.Trainable = dp
	switch method {
	case PlaceLearned:
		// The third action component drives placement.
	case PlaceFastOnly:
		pol = &placedPolicy{Trainable: dp, counts: []int{fast, 0}, label: method}
	case PlaceEffOnly:
		pol = &placedPolicy{Trainable: dp, counts: []int{0, eff}, label: method}
	case PlaceStaticMix:
		pol = &placedPolicy{Trainable: dp, counts: []int{(fast + 1) / 2, (eff + 1) / 2}, label: method}
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}

	trainCfg := setup.trainServerConfig()
	trainCfg.Topology = &topo
	if _, err := agent.Train(pol, agent.TrainConfig{
		Episodes:   scale.TrainEpisodes,
		EpisodeLen: setup.Trace.Period,
		Server:     trainCfg,
		Trace:      setup.Trace,
	}); err != nil {
		return nil, err
	}

	evalCfg := setup.ServerConfig(scale.Seed + 104729)
	evalCfg.Topology = &topo
	return agent.Evaluate(pol, evalCfg, setup.Trace, scale.EvalDuration)
}

// Artifacts renders the placement comparison table.
func (r *HeteroPlaceResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("heteroplace_xapian", r.Table())}
}

// Table renders the placement comparison with per-class energy attribution.
func (r *HeteroPlaceResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Heterogeneous placement (%s, classes %v, budget %.1f W)",
			r.App, r.Classes, r.BudgetW),
		Columns: []string{"method", "power W", "in budget", "p99 ms", "timeout %", "Eq.2 met",
			"fast J", "eff J"},
	}
	for _, method := range HeteroPlaceMethods {
		res := r.Results[method]
		if res == nil {
			continue
		}
		fastJ, effJ := "-", "-"
		if len(res.ClassEnergyJ) == 2 {
			fastJ, effJ = f2(res.ClassEnergyJ[0]), f2(res.ClassEnergyJ[1])
		}
		t.AddRow(method,
			f2(res.AvgPowerW), fmt.Sprint(res.AvgPowerW <= r.BudgetW),
			f3(res.Latency.P99*1e3), f3(res.TimeoutRate*100),
			fmt.Sprint(res.TimeoutBudgetMet), fastJ, effJ)
	}
	return t
}
