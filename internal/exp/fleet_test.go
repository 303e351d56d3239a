package exp

import (
	"context"
	"strings"
	"testing"

	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/sim"
)

// fleetTestScale is the 100-server fleet at test-friendly durations: the
// determinism and conservation contracts do not depend on campaign length,
// so the suite compresses the diurnal period to a few seconds while keeping
// the full-scale shard count.
func fleetTestScale() Scale {
	s := Quick()
	s.TrainEpisodes = 1
	s.EvalDuration = 3 * sim.Second
	s.TracePeriod = 3 * sim.Second
	s.Samples = 2000
	s.FleetShards = 100
	return s
}

// TestFleetSerialParallelEquivalence pins the fleet at full width: a
// 100-server campaign advanced with eight workers must render the bytes of
// its workers = 1 golden (testdata/golden/fleet100). The registry-wide
// golden suite covers the fleet harness at Quick's 4 shards; this pins the
// width where epoch batches actually span many pool units.
func TestFleetSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("a 100-server fleet campaign")
	}
	h, err := HarnessByName("fleet")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, h, fleetTestScale(), fleetGoldenDir)
}

// TestFleetResultShape sanity-checks one tiny fleet run end to end: every
// balancer campaign and both fault modes present, conservation intact, and
// the time-series CSV covering each campaign.
func TestFleetResultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a policy and runs five fleet campaigns")
	}
	scale := fleetTestScale()
	scale.FleetShards = 6
	res, err := Fleet(context.Background(), scale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 6 {
		t.Errorf("Shards = %d, want 6", res.Shards)
	}
	for _, name := range cluster.BalancerNames() {
		c := res.Campaigns[name]
		if c == nil {
			t.Fatalf("missing campaign %q", name)
		}
		if c.TotalRouted == 0 || c.Completions == 0 {
			t.Errorf("%s: degenerate campaign: %s", name, c)
		}
		if c.Arrivals != c.Completions+c.InFlight {
			t.Errorf("%s: conservation violated: %d arrivals vs %d completed + %d in flight",
				name, c.Arrivals, c.Completions, c.InFlight)
		}
		if len(c.Series) == 0 {
			t.Errorf("%s: empty fleet time series", name)
		}
	}
	for _, mode := range FleetFaultModes {
		c := res.Fault[mode]
		if c == nil {
			t.Fatalf("missing fault mode %q", mode)
		}
		if c.TotalRouted == 0 {
			t.Errorf("fault %s: no requests routed", mode)
		}
	}
	csv := res.CSVSeries()
	for _, name := range cluster.BalancerNames() {
		if !strings.Contains(csv, name+",") {
			t.Errorf("time-series CSV missing campaign %q", name)
		}
	}
	if res.Table().Render() == "" || res.FaultTable().Render() == "" {
		t.Error("empty table rendering")
	}
}
