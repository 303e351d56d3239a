// Package exp contains one harness per table and figure of the paper's
// evaluation (§5), plus the ablations DESIGN.md lists. Each harness returns
// a structured result that renders both as an aligned text table (for
// terminals and EXPERIMENTS.md) and as CSV (for replotting).
package exp

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/deeppower/deeppower/internal/sim"
)

// Scale selects how big an experiment run is. Quick keeps unit tests and
// benchmarks snappy; Full approximates the paper's setup (20 workers, 360 s
// trace periods, longer training).
type Scale struct {
	// Workers overrides each app's worker count (0 keeps the paper's).
	Workers int
	// TrainEpisodes is how many trace periods DeepPower trains for.
	TrainEpisodes int
	// EvalDuration is the measured run length.
	EvalDuration sim.Time
	// TracePeriod is the diurnal trace's period.
	TracePeriod sim.Time
	// Samples bounds sampling-based experiments (Fig. 1, Fig. 2).
	Samples int
	// FleetShards is the fleet harness's server count (0 defaults to 4).
	FleetShards int
	// Seed drives everything.
	Seed int64
}

// Quick is the CI-friendly scale.
func Quick() Scale {
	return Scale{
		Workers:       4,
		TrainEpisodes: 4,
		EvalDuration:  40 * sim.Second,
		TracePeriod:   20 * sim.Second,
		Samples:       20000,
		FleetShards:   4,
		Seed:          1,
	}
}

// Full approximates the paper's experimental scale.
func Full() Scale {
	return Scale{
		Workers:       0, // paper values: 20 (8 for Masstree)
		TrainEpisodes: 20,
		EvalDuration:  360 * sim.Second,
		TracePeriod:   360 * sim.Second,
		Samples:       200000,
		FleetShards:   100,
		Seed:          1,
	}
}

// Table is a generic labeled grid used by every harness's rendering.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns an aligned text table. Cells beyond the header's width
// are written unpadded.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table as comma-separated values with a header.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		quoted := make([]string, len(row))
		for i, cell := range row {
			if strings.ContainsAny(cell, ",\"\n") {
				cell = strconv.Quote(cell)
			}
			quoted[i] = cell
		}
		b.WriteString(strings.Join(quoted, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// f2 formats with fixed precision.
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// f3 formats with three decimals.
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
