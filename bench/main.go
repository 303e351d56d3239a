// Command bench is the repository's one benchmark: five named workloads over
// the whole stack, measured from outside through the layers' public
// functions. BENCHMARK.json at the repository root declares its workloads and
// metrics; README.md in this directory explains them.
//
//	go run ./bench                                    all workloads, end-to-end metrics
//	go run ./bench -trace spans.json                  ... plus the traced run of each, spans written
//	go run ./bench -workload fleet -seed 2 -trace 1   one workload's traced run, per-layer metrics
//	go run ./bench -agree 5                           two interleaved sets of 5 runs per workload
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is 0 only
// if every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the JSON record (default: all five)")
	seed := fs.Int64("seed", 1, "seed of the request streams the workloads run on")
	seconds := fs.Int("seconds", 0, "accepted for the driver, which always passes it: the work is fixed, so it must be BENCHMARK.json's run_seconds")
	trace := fs.String("trace", "0", "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics; a file name: both, spans written there")
	agree := fs.Int("agree", 0, "run two interleaved sets of this many runs per workload and compare their medians")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *seconds != 0 && *seconds != sp.RunSeconds {
		fmt.Fprintf(stderr, "bench: the work of a run is fixed and sized for run_seconds = %d; -seconds %d would be another benchmark\n",
			sp.RunSeconds, *seconds)
		return 2
	}
	if *agree > 0 {
		return runAgree(sp, *agree, stdout, stderr)
	}

	list := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		list = []workloadDef{w}
	}
	timed, traced := *trace != "1", *trace != "0"
	if *name == "" && *trace == "1" {
		timed = true // the all-workloads command always prints the end-to-end metrics
	}

	fp := newFingerprint(*seed)
	sz := fullSizing()
	ok := true
	var last *runResult
	var spans []span
	for _, w := range list {
		if timed {
			res, err := runTimed(sp, w, sz, *seed)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printResult(stdout, fp, res, "end-to-end")
			ok, last = ok && res.correct(), res
		}
		if traced {
			res, err := runTraced(sp, w, sz, *seed)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printResult(stdout, fp, res, "per-layer")
			ok, last = ok && res.correct(), res
			// Span IDs are per workload; shift them so parents stay unique.
			base := len(spans)
			for _, s := range res.spans {
				s.ID += base
				if s.Parent >= 0 {
					s.Parent += base
				}
				spans = append(spans, s)
			}
		}
	}
	if traced && *trace != "1" {
		if err := writeTrace(*trace, fp, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(spans), *trace)
	}
	if *name != "" {
		fmt.Fprintln(stdout, recordJSON(last))
	} else if ok {
		fmt.Fprintln(stdout, "all output checks passed")
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// printResult writes one record: fingerprint first, then every metric by
// name with its unit, then the output checks.
func printResult(w io.Writer, fp fingerprint, res *runResult, kind string) {
	fmt.Fprintln(w, fp)
	fmt.Fprintf(w, "workload %s: %s metrics, %d repetitions, %d operations attempted, %d failed\n",
		res.workload, kind, res.reps, res.attempted, res.failed)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	passed := 0
	for _, c := range res.checks {
		if c.ok {
			passed++
			continue
		}
		fmt.Fprintf(w, "  CHECK FAILED: %s: %s\n", c.name, c.detail)
	}
	fmt.Fprintf(w, "  checks: %d of %d passed\n", passed, len(res.checks))
}

// record is the contract's output object.
type record struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]recordValue `json:"metrics"`
}

type recordValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func recordJSON(res *runResult) string {
	rec := record{
		Correct:   res.correct(),
		Attempted: max(1, res.attempted),
		Failed:    res.failed,
		Metrics:   map[string]recordValue{},
	}
	for _, m := range res.metrics {
		rec.Metrics[m.Name] = recordValue{m.Value, m.Unit}
	}
	out, err := json.Marshal(rec)
	if err != nil {
		// Only a non-finite value cannot be marshalled, and that is a
		// failed check already; keep the record well-formed.
		return `{"correct":false,"attempted":1,"failed":0,"metrics":{}}`
	}
	return string(out)
}
