package exp

import (
	"context"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/sim"
)

// shapeScale keeps the train-and-evaluate shape tests snappy.
func shapeScale() Scale {
	s := Quick()
	s.TrainEpisodes = 1
	s.EvalDuration = 12 * sim.Second
	s.TracePeriod = 10 * sim.Second
	s.Samples = 2000
	return s
}

// TestFig8Shape covers the previously untested time-series harness:
// output shape, time monotonicity, physical plausibility of every column,
// and seed stability.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	scale := shapeScale()
	r, err := Fig8(context.Background(), scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.App != app.Xapian {
		t.Errorf("app = %q", r.App)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no series rows")
	}
	for i, row := range r.Rows {
		if i > 0 && row.At < r.Rows[i-1].At {
			t.Fatalf("row %d: time went backwards (%v after %v)", i, row.At, r.Rows[i-1].At)
		}
		if row.RPS < 0 || row.PowerW < 0 || row.AvgFreqGHz < 0 || row.QueueLen < 0 {
			t.Fatalf("row %d: negative measurement %+v", i, row)
		}
		if row.BaseFreq < 0 || row.BaseFreq > 1 || row.ScalingCoef < 0 || row.ScalingCoef > 1 {
			t.Fatalf("row %d: controller params outside [0,1]: %+v", i, row)
		}
	}
	if r.Table().Render() == "" || r.CSVSeries() == "" {
		t.Error("empty rendering")
	}

	// Seed stability: an identical run renders the identical series.
	again, err := Fig8(context.Background(), scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CSVSeries() != again.CSVSeries() {
		t.Error("Fig8 not stable across same-seed runs")
	}
}

// TestFig7Shape table-drives the comparison harness over single-app grids:
// every (app, method) cell populated, physically plausible, and stable
// across same-seed runs at different worker counts.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method comparison")
	}
	cases := []struct {
		name string
		apps []string
	}{
		{"xapian", []string{app.Xapian}},
		{"sphinx", []string{app.Sphinx}},
	}
	scale := shapeScale()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, err := Fig7(context.Background(), scale, tc.apps, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Apps) != len(tc.apps) {
				t.Fatalf("apps = %v", r.Apps)
			}
			for _, name := range tc.apps {
				for _, m := range Fig7Methods {
					res := r.Results[name][m]
					if res == nil {
						t.Fatalf("missing result %s/%s", name, m)
					}
					if res.AvgPowerW <= 0 || res.Counters.Completions == 0 {
						t.Errorf("%s/%s: degenerate result (power %v, completions %d)",
							name, m, res.AvgPowerW, res.Counters.Completions)
					}
					if res.Latency.P99 < 0 {
						t.Errorf("%s/%s: negative p99", name, m)
					}
					// No managed method may exceed the all-turbo baseline's
					// power: turbo everywhere is the ceiling by construction.
					if base := r.Results[name][MethodBaseline]; res.AvgPowerW > base.AvgPowerW*1.01 {
						t.Errorf("%s/%s: power %v above baseline %v", name, m, res.AvgPowerW, base.AvgPowerW)
					}
				}
			}
			for _, tbl := range []*Table{r.PowerTable(), r.LatencyTable(), r.QualityTable()} {
				if len(tbl.Rows) != len(tc.apps) {
					t.Errorf("table %q has %d rows, want %d", tbl.Title, len(tbl.Rows), len(tc.apps))
				}
			}
		})
	}
}

// TestOverheadTableShape covers the overhead harness's rendering: the five
// §5.5 rows plus the two simulator-throughput rows, with the measured
// columns populated.
func TestOverheadTableShape(t *testing.T) {
	r, err := Overhead(context.Background(), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.SimEvents == 0 || r.SimEventsPerSec <= 0 {
		t.Errorf("simulator throughput not measured: events=%d, events/s=%v",
			r.SimEvents, r.SimEventsPerSec)
	}
	tbl := r.Table()
	if len(tbl.Rows) != 7 {
		t.Fatalf("overhead table has %d rows, want 7", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 3 {
			t.Fatalf("row %v has %d cells, want 3", row, len(row))
		}
		if row[1] == "" || row[2] == "" {
			t.Errorf("row %v has empty cells", row)
		}
	}
}

// TestMeasureFreqSet covers the simulator's frequency-actuation timing
// probe: positive, finite, and far below the paper's 10 µs sysfs bound.
func TestMeasureFreqSet(t *testing.T) {
	us := measureFreqSet()
	if us <= 0 {
		t.Fatalf("freq-set cost %v us, want > 0", us)
	}
	if us >= 10 {
		t.Errorf("freq-set cost %v us, want < 10 (paper bound)", us)
	}
}
