package server

import (
	"github.com/deeppower/deeppower/internal/sim"
)

// job is one in-flight DAG-structured request: the set of stage Requests
// sharing an arrival time and an end-to-end SLA. Jobs are pooled like
// Requests; slices are reused across jobs.
type job struct {
	id     uint64
	arrive sim.Time

	remaining int    // stages not yet completed
	admitted  []bool // stage has been enqueued
	start     []sim.Time
	finish    []sim.Time
	// cp[i] is the longest chain of stage processing durations (wall
	// seconds) through any predecessor path ending at stage i's completion.
	cp []float64
}

// JobTrace is one completed job's schedule, retained when Config.RecordJobs
// is set — the raw material of the DAG invariant suite (precedence, critical
// path, conservation checks).
type JobTrace struct {
	ID             uint64
	Arrive, Finish sim.Time
	// StageStart/StageFinish are per-stage dispatch and completion times.
	StageStart, StageFinish []sim.Time
	// CriticalPathSec is the longest chain of stage processing durations.
	CriticalPathSec float64
}

func (s *Server) getJob() *job {
	if n := len(s.jobFree); n > 0 {
		j := s.jobFree[n-1]
		s.jobFree = s.jobFree[:n-1]
		return j
	}
	return &job{}
}

func (s *Server) putJob(j *job) { s.jobFree = append(s.jobFree, j) }

// resetJob sizes and clears a job's per-stage state for n stages.
func (j *job) reset(n int) {
	j.remaining = n
	if cap(j.admitted) < n {
		j.admitted = make([]bool, n)
		j.start = make([]sim.Time, n)
		j.finish = make([]sim.Time, n)
		j.cp = make([]float64, n)
	}
	j.admitted = j.admitted[:n]
	j.start = j.start[:n]
	j.finish = j.finish[:n]
	j.cp = j.cp[:n]
	for i := 0; i < n; i++ {
		j.admitted[i] = false
		j.start[i] = -1
		j.finish[i] = -1
		j.cp[i] = 0
	}
}

// admitJob materializes one DAG job arriving now: its root stages enter the
// queue immediately; downstream stages are admitted as predecessors finish.
func (s *Server) admitJob() {
	j := s.getJob()
	j.id = s.nextJobID
	s.nextJobID++
	j.arrive = s.eng.Now()
	j.reset(s.dag.NumStages())
	s.counters.JobArrivals++
	for _, st := range s.dag.Roots() {
		j.admitted[st] = true
		s.enqueueStage(j, st)
	}
}

// enqueueStage admits one ready stage to the FIFO: sample its work from the
// stage's own distribution, notify the policy, dispatch or queue. The stage
// request's Arrive is the job's arrival so policies and SLA accounting see
// the end-to-end budget.
func (s *Server) enqueueStage(j *job, stage int) {
	r := s.getRequest()
	r.ID = s.nextID
	r.Arrive = j.arrive
	r.Start = -1
	r.Finish = -1
	r.CoreID = -1
	r.ServiceActual = 0
	r.remaining = 0
	r.Stage = stage
	r.job = j
	if into := s.stageInto[stage]; into != nil {
		into.SampleInto(s.rngService, &r.Work)
	} else {
		r.Work = s.dag.Stages[stage].Sampler.Sample(s.rngService)
	}
	s.nextID++
	s.counters.Arrivals++
	s.policy.OnArrival(r)
	if w := s.idleWorker(); w != nil {
		s.dispatch(w, r)
	} else {
		s.queue.Push(r)
	}
}

// completeStage records one stage completion, admits successors whose
// predecessors have all finished (so a stage's dispatch time can never
// precede its last predecessor's finish), and settles the job when its last
// stage completes.
func (s *Server) completeStage(j *job, stage int, start, now sim.Time) {
	j.start[stage] = start
	j.finish[stage] = now
	d := (now - start).Seconds()
	cp := 0.0
	for _, p := range s.dag.Preds(stage) {
		if j.cp[p] > cp {
			cp = j.cp[p]
		}
	}
	j.cp[stage] = cp + d
	j.remaining--
	for _, nx := range s.dag.Succs(stage) {
		if j.admitted[nx] {
			continue
		}
		ready := true
		for _, p := range s.dag.Preds(nx) {
			if j.finish[p] < 0 {
				ready = false
				break
			}
		}
		if ready {
			j.admitted[nx] = true
			s.enqueueStage(j, nx)
		}
	}
	if j.remaining == 0 {
		s.finishJob(j, now)
	}
}

// finishJob settles end-to-end accounting for a completed job: latency
// digests, SLA timeout, critical-path statistics, and the optional trace.
func (s *Server) finishJob(j *job, now sim.Time) {
	s.counters.JobCompletions++
	lat := now - j.arrive
	maxCP := 0.0
	for _, c := range j.cp {
		if c > maxCP {
			maxCP = c
		}
	}
	if s.recordLatency(now, lat) {
		s.cpMean.Add(maxCP)
		if ls := lat.Seconds(); ls > 0 {
			s.cpShare.Add(maxCP / ls)
		}
	}
	if s.cfg.RecordJobs {
		s.jobTraces = append(s.jobTraces, JobTrace{
			ID:              j.id,
			Arrive:          j.arrive,
			Finish:          now,
			StageStart:      append([]sim.Time(nil), j.start...),
			StageFinish:     append([]sim.Time(nil), j.finish...),
			CriticalPathSec: maxCP,
		})
	}
	s.putJob(j)
}
