package app

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/deeppower/deeppower/internal/sim"
)

// DAGStage is one stage of a DAG-structured request: a unit of work with its
// own service-time distribution that may run only after its predecessors.
type DAGStage struct {
	// Name labels the stage ("auth", "rank").
	Name string
	// Sampler draws the stage's work.
	Sampler Sampler
	// Preds are indices of stages that must complete before this one is
	// admitted to the server queue.
	Preds []int
}

// DAG is a request's stage graph: a microservice chain/fan-out where the SLA
// applies to the end-to-end latency of the whole graph, not to any single
// stage (the HiDVFS-style real-time DAG workload model). Validate must
// succeed before the DAG is used; it also precomputes successor lists and
// roots. Validating a DAG again leaves it untouched unless its stages
// changed, so servers built concurrently from one validated profile only
// read it.
type DAG struct {
	// Name labels the graph in reports.
	Name string
	// Stages in index order. Edges are Preds indices into this slice.
	Stages []DAGStage

	succs [][]int
	roots []int
}

// Validate checks the graph — in-range acyclic edges, no self-loops,
// samplers present — and precomputes the derived views (successors, roots)
// the server's admission path consumes. The views are built aside and
// stored only when they differ from the ones the DAG already holds.
func (d *DAG) Validate() error {
	n := len(d.Stages)
	if n == 0 {
		return fmt.Errorf("app: DAG %q has no stages", d.Name)
	}
	succs := make([][]int, n)
	var roots []int
	indeg := make([]int, n)
	for i, st := range d.Stages {
		if st.Sampler == nil {
			return fmt.Errorf("app: DAG %q stage %d (%s): nil sampler", d.Name, i, st.Name)
		}
		seen := make(map[int]bool, len(st.Preds))
		for _, p := range st.Preds {
			if p < 0 || p >= n {
				return fmt.Errorf("app: DAG %q stage %d (%s): dangling predecessor %d", d.Name, i, st.Name, p)
			}
			if p == i {
				return fmt.Errorf("app: DAG %q stage %d (%s): self-loop", d.Name, i, st.Name)
			}
			if seen[p] {
				return fmt.Errorf("app: DAG %q stage %d (%s): duplicate predecessor %d", d.Name, i, st.Name, p)
			}
			seen[p] = true
			succs[p] = append(succs[p], i)
			indeg[i]++
		}
	}
	// Kahn's algorithm: a complete topological order proves acyclicity.
	var frontier []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, i)
			roots = append(roots, i)
		}
	}
	ordered := 0
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		ordered++
		for _, nx := range succs[i] {
			indeg[nx]--
			if indeg[nx] == 0 {
				frontier = append(frontier, nx)
			}
		}
	}
	if ordered != n {
		return fmt.Errorf("app: DAG %q contains a cycle", d.Name)
	}
	if !slices.Equal(d.roots, roots) || !slices.EqualFunc(d.succs, succs, slices.Equal[[]int]) {
		d.succs, d.roots = succs, roots
	}
	return nil
}

// NumStages returns the number of stages.
func (d *DAG) NumStages() int { return len(d.Stages) }

// Roots returns the stages with no predecessors (callers must not mutate).
func (d *DAG) Roots() []int { return d.roots }

// Succs returns the successors of stage i (callers must not mutate).
func (d *DAG) Succs(i int) []int { return d.succs[i] }

// Preds returns the predecessors of stage i (callers must not mutate).
func (d *DAG) Preds(i int) []int { return d.Stages[i].Preds }

// MeanTotalService estimates the population mean of the summed per-stage
// reference service times — the total work one job brings, which bounds
// sustainable job throughput at Workers/mean. Deterministic for a seed.
func (d *DAG) MeanTotalService(seed int64, n int) sim.Time {
	r := sim.NewRNG(sim.SubSeed(seed, "mean-service-dag-"+d.Name))
	var sum float64
	for i := 0; i < n; i++ {
		for _, st := range d.Stages {
			sum += float64(st.Sampler.Sample(r).ServiceRef)
		}
	}
	return sim.Time(sum / float64(n))
}

// FixedSampler draws a constant service time with no features — the
// degenerate distribution ParseDAG attaches to parsed stages and tests use
// for exactly predictable schedules.
type FixedSampler struct{ Service sim.Time }

// Sample implements Sampler.
func (s FixedSampler) Sample(*sim.RNG) Work { return Work{ServiceRef: s.Service} }

// FeatureDim implements Sampler.
func (s FixedSampler) FeatureDim() int { return 0 }

// SampleInto implements IntoSampler. It consumes no randomness, like Sample.
func (s FixedSampler) SampleInto(_ *sim.RNG, w *Work) {
	w.ServiceRef = s.Service
	w.Features = w.Features[:0]
}

// ParseDAG builds a DAG from a compact text form: stages separated by ';'
// or newlines, each
//
//	name
//	name(duration)
//	name:pred1,pred2
//	name(duration):pred1,pred2
//
// where predecessors are earlier stage names and duration is a Go duration
// ("500us", "2ms") giving the stage a FixedSampler (default 1ms). Example:
//
//	gate(500us); auth(1ms):gate; search(2ms):gate; merge(1ms):auth,search
//
// The returned DAG is validated: cycles (unreachable in this forward-
// reference-free form), dangling predecessor names, duplicate stage names,
// and empty graphs are all errors.
func ParseDAG(name, spec string) (*DAG, error) {
	d := &DAG{Name: name}
	index := make(map[string]int)
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == '\n' })
	for _, raw := range fields {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		head, predPart, hasPreds := strings.Cut(raw, ":")
		head = strings.TrimSpace(head)
		service := sim.Millisecond
		if open := strings.IndexByte(head, '('); open >= 0 {
			if !strings.HasSuffix(head, ")") {
				return nil, fmt.Errorf("app: DAG %q stage %q: unterminated duration", name, head)
			}
			dur, err := time.ParseDuration(head[open+1 : len(head)-1])
			if err != nil || dur <= 0 {
				return nil, fmt.Errorf("app: DAG %q stage %q: bad duration", name, head)
			}
			service = sim.Time(dur.Nanoseconds())
			head = strings.TrimSpace(head[:open])
		}
		if head == "" {
			return nil, fmt.Errorf("app: DAG %q: unnamed stage in %q", name, raw)
		}
		if _, dup := index[head]; dup {
			return nil, fmt.Errorf("app: DAG %q: duplicate stage %q", name, head)
		}
		st := DAGStage{Name: head, Sampler: FixedSampler{Service: service}}
		if hasPreds {
			for _, p := range strings.Split(predPart, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					return nil, fmt.Errorf("app: DAG %q stage %q: empty predecessor", name, head)
				}
				pi, ok := index[p]
				if !ok {
					return nil, fmt.Errorf("app: DAG %q stage %q: unknown predecessor %q", name, head, p)
				}
				st.Preds = append(st.Preds, pi)
			}
		}
		index[head] = len(d.Stages)
		d.Stages = append(d.Stages, st)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
