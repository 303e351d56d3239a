package serve

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// benchGen runs a generator against a fresh daemon and returns the summary
// plus the daemon's telemetry. With drain set it first waits until every
// accepted request has executed (needed for server-side SLA accounting);
// closed-loop overload runs skip it — they accept far beyond the simulated
// capacity on purpose, and only the client-side numbers matter.
func benchGen(b *testing.B, method string, cfg GenConfig, drain bool) (*GenSummary, Telemetry) {
	b.Helper()
	d, err := NewDaemon(DaemonConfig{Method: method, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Stop()
	cfg.Addr = d.Addr()
	sum, err := NewGenerator(cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	if sum.TransportErrors != 0 {
		b.Fatalf("transport errors: %d (%v)", sum.TransportErrors, sum.Errors)
	}
	if !drain {
		return sum, d.Telemetry()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tel := d.Telemetry()
		if tel.Arrivals == tel.Accepted && tel.QueueLen == 0 && tel.BusyCores == 0 {
			return sum, tel
		}
		if time.Now().After(deadline) {
			b.Fatalf("backend did not drain: %+v", tel)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkServe measures the serving stack end to end. Sub-benchmarks:
//
//   - AdmissionPath: the per-read-batch hot path (parse, respond, count,
//     stamp) in isolation — the zero-allocation contract.
//   - ClosedLoop: maximum loopback throughput with pipelined connections
//     against the guarded controller policy.
//   - OpenLoopDiurnal: one replayed diurnal period at cloud-trace rates
//     (trough 90k, crest 135k req/s) — the SLA-violation acceptance run.
func BenchmarkServe(b *testing.B) {
	b.Run("AdmissionPath", func(b *testing.B) {
		d, err := NewDaemon(DaemonConfig{Method: "maxfreq"})
		if err != nil {
			b.Fatal(err)
		}
		const batch = 32
		in := bytes.Repeat(reqBytes, batch)
		out := make([]byte, 0, connWriteBuf)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			shard := i & (nShards - 1)
			_, admitted, _, _ := d.processBuffer(in, &out, shard)
			d.wire.Accepted.Add(shard, uint64(admitted))
			d.bridge.Admit(int64(i), uint32(admitted))
			if i&1023 == 0 {
				// The bridge is not running here; stand in for its drain so
				// the ring never grows past its initial capacity.
				d.bridge.stamps.Drain()
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/req")
	})

	b.Run("ClosedLoop", func(b *testing.B) {
		var sum *GenSummary
		for i := 0; i < b.N; i++ {
			sum, _ = benchGen(b, "controller:0.4,0.5", GenConfig{
				Conns: 2, Pipeline: 32, Duration: time.Second,
			}, false)
		}
		b.ReportMetric(sum.AchievedRPS, "req/s")
		b.ReportMetric(sum.SustainedRPS, "sustained-req/s")
	})

	b.Run("OpenLoopDiurnal", func(b *testing.B) {
		period := 4 * time.Second
		// Reclaim the closed-loop run's simulated backlog up front; on a
		// small box a concurrent GC mid-replay shows up as arrival bunching
		// and phantom SLA violations.
		runtime.GC()
		time.Sleep(200 * time.Millisecond)
		dc := workload.DefaultDiurnal()
		dc.Period = sim.Time(period)
		dc.Buckets = 24
		dc.BaseRPS = 90000
		dc.PeakRPS = 135000
		var sum *GenSummary
		var tel Telemetry
		for i := 0; i < b.N; i++ {
			sum, tel = benchGen(b, "controller:0.4,0.5", GenConfig{
				Conns: 2, Duration: period, Trace: workload.Diurnal(dc),
			}, true)
		}
		slaRate := 0.0
		if tel.Completions > 0 {
			slaRate = float64(tel.Timeouts) / float64(tel.Completions)
		}
		b.ReportMetric(sum.AchievedRPS, "req/s")
		b.ReportMetric(slaRate*100, "sla-viol-%")
	})
}
