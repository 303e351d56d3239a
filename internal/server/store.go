package server

import "sync"

// runStore carries the storage a finished run no longer needs to the next
// server: emptied latency blocks, completed Requests (with their
// Work.Features arrays) and DAG jobs. It carries storage, never values —
// every field of a recycled object is rewritten before it is read (admit and
// enqueueStage reset each Request field, append overwrites block contents,
// job.reset re-sizes per-stage state) — so which store a server gets, or
// whether it gets a warm one at all, is invisible to its results.
type runStore struct {
	blocks [][]float64
	reqs   []*Request
	jobs   []*job
}

// runStores holds the stores of ended runs. New takes one and End returns
// the same one, so servers running concurrently each own a distinct store
// from New to End.
var runStores = sync.Pool{New: func() any { return new(runStore) }}

// takeStore seeds the server's free lists from a pooled store, which the
// server keeps until End hands it back.
func (s *Server) takeStore() {
	st := runStores.Get().(*runStore)
	s.store = st
	s.latencies.spare, s.reqFree, s.jobFree = st.blocks, st.reqs, st.jobs
}

// releaseStore hands the run's free storage — the blocks buildResult has
// just emptied, the free requests and the free jobs — back to the store New
// took, and returns that store to the pool. Requests still queued or in
// service stay with the server, which callers may still inspect after End.
// A second End has no store to return and recycles nothing.
func (s *Server) releaseStore() {
	st := s.store
	if st == nil {
		return
	}
	st.blocks, st.reqs, st.jobs = s.latencies.spare, s.reqFree, s.jobFree
	s.store, s.latencies.spare, s.reqFree, s.jobFree = nil, nil, nil, nil
	runStores.Put(st)
}
