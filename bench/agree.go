package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAgree measures whether two sets of runs of the same binary agree within
// the benchmark's own bounds. Like the driver, each set makes n runs of
// every workload, one process per run, each with another seed (1..n); the
// sets are interleaved so a drifting machine disturbs both alike. Per
// workload and end-to-end metric it prints both medians, their relative gap
// against the bound, and each set's spread (quartile distance over median,
// statistics.quantiles' exclusive method).
func runAgree(sp *spec, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, newFingerprint(0))
	fmt.Fprintf(stdout, "agreement: 2 interleaved sets x %d runs per workload, seeds 1..%d\n\n", n, n)
	fmt.Fprintln(stdout, "| workload | metric | unit | median A | median B | gap | bound | spread A | spread B | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|")
	ok := true
	for _, w := range workloads {
		// sets[set][metric] = the n values.
		sets := [2]map[string][]float64{{}, {}}
		exact := true // every seed's simulated metrics equal across the sets
		for seed := 1; seed <= n; seed++ {
			var recs [2]record
			for set := range sets {
				// Alternate which set runs first.
				set := (set + seed) % 2
				rec, err := runOnce(exe, w.name, seed, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				ok = ok && rec.Correct
				recs[set] = rec
				for name, v := range rec.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
			for _, m := range sp.EndToEnd {
				if strings.HasPrefix(m.Name, "sim_") && recs[0].Metrics[m.Name] != recs[1].Metrics[m.Name] {
					exact = false
				}
			}
		}
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			gap, verdict, rowOK := agreement(m, a, b, exact)
			ok = ok && rowOK
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %+.4f | %.2f | %.4f | %.4f | %s |\n",
				w.name, m.Name, m.Unit, median(a), median(b), gap, *m.Bound, spread(a), spread(b), verdict)
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: the two sets do not agree within the bounds")
		return 1
	}
	fmt.Fprintln(stdout, "\nthe two sets agree within every bound; every run passed its output checks")
	return 0
}

// agreement is one row's verdict on the two sets' values of metric m. gap is
// set B's median relative to set A's, signed so that positive is worse; the
// sets are runs of the same binary, so it may not exceed the bound in either
// direction. exact says whether the simulated metrics were equal seed by seed.
func agreement(m metricSpec, a, b []float64, exact bool) (gap float64, verdict string, ok bool) {
	gap = (median(b) - median(a)) / median(a)
	if m.Better == "higher" {
		gap = -gap
	}
	simulated := strings.HasPrefix(m.Name, "sim_")
	switch {
	case math.Abs(gap) > *m.Bound:
		return gap, "GAP OVER BOUND", false
	case m.Name != "setup_s" && max(spread(a), spread(b)) > *m.Bound:
		return gap, "SPREAD OVER BOUND", false
	case simulated && !exact:
		return gap, "NOT EXACT", false
	case simulated:
		return gap, "ok, exact per seed", true
	}
	return gap, "ok", true
}

// runOnce runs one workload in a process of its own and parses the record on
// the last line of its output.
func runOnce(exe, workload string, seed int, stderr io.Writer) (record, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-trace", "0")
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var rec record
	if err := json.Unmarshal(last, &rec); err != nil {
		if runErr != nil {
			return rec, runErr
		}
		return rec, fmt.Errorf("no record on the last line: %w", err)
	}
	return rec, nil
}

// spread is the distance between the first and third quartile over the
// median, with the quartiles of Python's statistics.quantiles(xs, n=4).
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
