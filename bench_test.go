package deeppower

// One benchmark per table and figure of the paper's evaluation (§5). Each
// bench regenerates its artifact at a reduced (benchmark-friendly) scale and
// reports domain metrics via b.ReportMetric; `cmd/repro` runs the same
// harnesses at full scale and writes the rendered tables to results/.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

func benchScale() exp.Scale {
	s := exp.Quick()
	s.TrainEpisodes = 6
	return s
}

// maxOffDiagonal is the largest cell of a square matrix outside its
// diagonal: Fig. 2's cross-load degradation.
func maxOffDiagonal(m [][]float64) float64 {
	worst := 0.0
	for i := range m {
		for j, v := range m[i] {
			if i != j && v > worst {
				worst = v
			}
		}
	}
	return worst
}

// freqChanges counts tick-to-tick frequency changes summed over cores — the
// granularity that separates per-request policies from per-millisecond ones
// (Figs. 9 and 10).
func freqChanges(ft *server.FreqTrace) int {
	n := 0
	for i := 1; i < len(ft.Freqs); i++ {
		for c, f := range ft.Freqs[i] {
			if f != ft.Freqs[i-1][c] {
				n++
			}
		}
	}
	return n
}

// minFreq is the lowest frequency anywhere in the trace.
func minFreq(ft *server.FreqTrace) float64 {
	m := math.Inf(1)
	for _, row := range ft.Freqs {
		for _, f := range row {
			m = math.Min(m, f)
		}
	}
	return m
}

// BenchmarkFig1ServiceTimeCDF regenerates the normalized service-time CDFs
// (Fig. 1) and reports Moses' tail/mean skew.
func BenchmarkFig1ServiceTimeCDF(b *testing.B) {
	scale := benchScale()
	var skew float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig1(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		skew = r.TailOverMean[app.Moses]
	}
	b.ReportMetric(skew, "moses-tail/mean")
}

// BenchmarkFig2RelativeRMSE regenerates the cross-load prediction-error
// heatmaps (Fig. 2) and reports Masstree's worst off-diagonal cell.
func BenchmarkFig2RelativeRMSE(b *testing.B) {
	scale := benchScale()
	scale.Samples = 1500
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig2(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		worst = maxOffDiagonal(r.Heatmaps[0].RelRMSE)
	}
	b.ReportMetric(worst, "max-rel-rmse")
}

// BenchmarkTable2Inference regenerates the DRL inference-time table.
func BenchmarkTable2Inference(b *testing.B) {
	var r *exp.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Table2(500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.InferenceUS["DDPG"], "ddpg-us")
	b.ReportMetric(r.InferenceUS["SAC"], "sac-us")
}

// BenchmarkTable3TailLatency regenerates the load/latency calibration table
// and reports Xapian's p99 at 70% load.
func BenchmarkTable3TailLatency(b *testing.B) {
	scale := benchScale()
	var p99 float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Table3(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		p99 = r.P99ms[app.Xapian][2]
	}
	b.ReportMetric(p99, "xapian-70%-p99-ms")
}

// BenchmarkFig4ControllerTrace regenerates the 2 s thread-controller
// frequency trace under a trained agent.
func BenchmarkFig4ControllerTrace(b *testing.B) {
	scale := benchScale()
	scale.TrainEpisodes = 2
	var samples int
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		samples = len(r.Trace.Times)
	}
	b.ReportMetric(float64(samples), "trace-samples")
}

// BenchmarkFig5ScaleFunc regenerates the reward scaling curve.
func BenchmarkFig5ScaleFunc(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig5(context.Background(), benchScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		pts = len(r.X)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFig6WorkloadTrace regenerates the diurnal trace.
func BenchmarkFig6WorkloadTrace(b *testing.B) {
	scale := benchScale()
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		peak = r.Trace.MaxRate()
	}
	b.ReportMetric(peak, "peak-rps")
}

// BenchmarkFig7PowerComparison regenerates the headline comparison on
// Xapian (baseline / ReTail / Gemini / DeepPower) and reports DeepPower's
// power saving versus the baseline.
func BenchmarkFig7PowerComparison(b *testing.B) {
	scale := benchScale()
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig7(context.Background(), scale, []string{app.Xapian}, 1)
		if err != nil {
			b.Fatal(err)
		}
		saving = r.Saving(app.Xapian, exp.MethodDeepPower)
	}
	b.ReportMetric(saving*100, "dp-saving-%")
}

// BenchmarkFig8TimeSeries regenerates DeepPower's time-resolved run.
func BenchmarkFig8TimeSeries(b *testing.B) {
	scale := benchScale()
	scale.TrainEpisodes = 2
	var rows int
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig8(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(r.Rows)
	}
	b.ReportMetric(float64(rows), "series-rows")
}

// BenchmarkFig9FreqTraceXapian regenerates the millisecond-level frequency
// traces for Xapian and reports DeepPower's change granularity.
func BenchmarkFig9FreqTraceXapian(b *testing.B) {
	benchMethodTraces(b, exp.Fig9)
}

// BenchmarkFig10FreqTraceSphinx does the same for the second-scale app.
func BenchmarkFig10FreqTraceSphinx(b *testing.B) {
	benchMethodTraces(b, exp.Fig10)
}

// benchMethodTraces runs a per-method frequency-trace figure and reports
// the frequency changes in its DeepPower trace.
func benchMethodTraces(b *testing.B, fig func(context.Context, exp.Scale, int) (*exp.MethodTracesResult, error)) {
	scale := benchScale()
	scale.TrainEpisodes = 8
	var changes int
	for i := 0; i < b.N; i++ {
		r, err := fig(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		dp := r.Traces[0]
		if dp.Method != exp.MethodDeepPower {
			b.Fatalf("first trace is %s, want %s", dp.Method, exp.MethodDeepPower)
		}
		changes = freqChanges(dp.Trace)
	}
	b.ReportMetric(float64(changes), "freq-changes")
}

// BenchmarkFig11FixedParams regenerates the fixed-parameter frequency
// heatmaps and reports the idle-floor spread between settings.
func BenchmarkFig11FixedParams(b *testing.B) {
	scale := benchScale()
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11(context.Background(), scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		spread = minFreq(r.Traces[2]) - minFreq(r.Traces[0])
	}
	b.ReportMetric(spread, "floor-spread-ghz")
}

// BenchmarkOverheadTrainStep regenerates the §5.5 overhead table's training
// row: one DDPG update at batch 64.
func BenchmarkOverheadTrainStep(b *testing.B) {
	r, err := exp.Overhead(context.Background(), benchScale(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.TrainStepMS, "train-step-ms")
	b.ReportMetric(r.ActionGenUS, "action-us")
	b.ReportMetric(float64(r.ActorParams), "actor-params")
}

// BenchmarkVectorTrainer compares experience throughput — transitions into
// the replay pool per wall second — of the single-env trainer against the
// vectorized trainer at E ∈ {4, 8, 16} lockstep environments, training the
// same quick-scale Xapian configuration for the same episode count.
func BenchmarkVectorTrainer(b *testing.B) {
	scale := benchScale()
	for _, envs := range []int{1, 4, 8, 16} {
		name := "single"
		if envs > 1 {
			name = fmt.Sprintf("E%d", envs)
		}
		envs := envs
		b.Run(name, func(b *testing.B) {
			setup, err := exp.NewSetup(app.Xapian, scale)
			if err != nil {
				b.Fatal(err)
			}
			var trans uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var dp *DeepPowerPolicy
				if envs <= 1 {
					dp, err = setup.TrainDeepPower()
				} else {
					dp, err = setup.TrainDeepPowerVector(envs, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
				trans = dp.Experience()
			}
			b.StopTimer()
			b.ReportMetric(float64(trans)*float64(b.N)/b.Elapsed().Seconds(), "transitions/sec")
			b.ReportMetric(float64(trans), "transitions")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: virtual
// seconds of a loaded 8-core server per wall second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof := app.MustByName(app.Xapian)
	prof.Workers = 8
	rate := 0.7 * prof.MaxCapacity(prof.RefFreq, 1)
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			App:     app.Xapian,
			Workers: 8,
			Method:  MethodBaseline,
			// One diurnal period.
			Duration:    10 * sim.Second,
			TracePeriod: 10 * sim.Second,
			PeakLoad:    0.7,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	_ = rate
}
