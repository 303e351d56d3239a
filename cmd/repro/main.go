// Command repro regenerates every table and figure of the paper's
// evaluation into the results/ directory: aligned text tables (*.txt) and
// plottable CSVs (*.csv).
//
// Each experiment's (policy × app × seed) grid runs on a bounded worker
// pool; -parallel sets the worker count (default GOMAXPROCS). Parallel runs
// are byte-identical to serial ones — every work unit is self-contained and
// rows are assembled in declared order (see DESIGN.md).
//
// Usage:
//
//	repro                 # quick scale, all experiments, GOMAXPROCS workers
//	repro -scale full     # paper-scale (slow: trains on 360 s episodes)
//	repro -only fig7,table3
//	repro -parallel 1     # serial execution
//	repro -out results
//	repro -cpuprofile cpu.prof -memprofile mem.prof   # pprof the run
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/deeppower/deeppower/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	var (
		scaleName = flag.String("scale", "quick", "experiment scale: quick|full")
		only      = flag.String("only", "", "comma-separated experiment subset (e.g. fig7,table3)")
		outDir    = flag.String("out", "results", "output directory")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"worker count for experiment grids (<= 0 means GOMAXPROCS)")
		fleetShards = flag.Int("fleet-shards", 0,
			"override the fleet harness's server count (0 keeps the scale's default)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC() // get up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}()

	var scale exp.Scale
	switch *scaleName {
	case "quick":
		scale = exp.Quick()
	case "full":
		scale = exp.Full()
	default:
		log.Fatalf("unknown scale %q (quick|full)", *scaleName)
	}
	if *fleetShards > 0 {
		scale.FleetShards = *fleetShards
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	selected := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			if _, err := exp.HarnessByName(n); err != nil {
				log.Fatal(err)
			}
			selected[n] = true
		}
	}

	// SIGINT/SIGTERM cancel the run: in-flight work units finish, queued
	// units are never dispatched, and no partial artifacts are written for
	// the interrupted experiment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &writer{dir: *outDir}
	var timings []harnessTiming
	for _, h := range exp.Harnesses() {
		if len(selected) > 0 && !selected[h.Name] {
			continue
		}
		start := time.Now()
		log.Printf("running %s ...", h.Name)
		arts, err := h.Run(ctx, scale, *parallel)
		if err != nil {
			if ctx.Err() != nil {
				log.Fatalf("interrupted during %s", h.Name)
			}
			log.Fatalf("%s: %v", h.Name, err)
		}
		for _, a := range arts {
			if err := w.write(a); err != nil {
				log.Fatalf("%s: %v", h.Name, err)
			}
		}
		elapsed := time.Since(start)
		timings = append(timings, harnessTiming{Name: h.Name, Elapsed: elapsed, Artifacts: len(arts)})
		log.Printf("done %s (%v)", h.Name, elapsed.Round(time.Millisecond))
	}
	if err := w.timing(timingTable(timings, *scaleName, *parallel), len(selected) == 0); err != nil {
		log.Fatalf("runner_timing: %v", err)
	}
	log.Printf("artifacts written to %s", *outDir)
}

// harnessTiming is one harness's wall-clock cost in this run.
type harnessTiming struct {
	Name      string
	Elapsed   time.Duration
	Artifacts int
}

// timingTable renders the per-harness wall-clock summary written to
// runner_timing.txt: one row per harness plus a total, so scale or
// simulator-performance regressions are visible run over run.
func timingTable(timings []harnessTiming, scale string, parallel int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runner timing — scale=%s parallel=%d\n", scale, parallel)
	fmt.Fprintf(&b, "%-16s %12s %10s\n", "harness", "wall clock", "artifacts")
	var total time.Duration
	arts := 0
	for _, t := range timings {
		fmt.Fprintf(&b, "%-16s %12s %10d\n",
			t.Name, t.Elapsed.Round(time.Millisecond), t.Artifacts)
		total += t.Elapsed
		arts += t.Artifacts
	}
	fmt.Fprintf(&b, "%-16s %12s %10d\n", "total", total.Round(time.Millisecond), arts)
	return b.String()
}

// writer renders artifacts to stdout (tables) and files.
type writer struct{ dir string }

// timing prints the run's timing table and, for a run of the whole suite,
// records it as runner_timing.txt. A run narrowed with -only prints only:
// its one-harness table must not replace the suite's record.
func (w *writer) timing(tbl string, wholeSuite bool) error {
	fmt.Println(tbl)
	if !wholeSuite {
		return nil
	}
	return os.WriteFile(filepath.Join(w.dir, "runner_timing.txt"), []byte(tbl), 0o644)
}

func (w *writer) write(a exp.Artifact) error {
	if a.Ext == "txt" {
		fmt.Println(a.Data)
	}
	return os.WriteFile(filepath.Join(w.dir, a.Name+"."+a.Ext), []byte(a.Data), 0o644)
}
