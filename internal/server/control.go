package server

import (
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
)

// The Server itself implements Control; policies receive it in Init.
var _ Control = (*Server)(nil)

// Now implements Control.
func (s *Server) Now() sim.Time { return s.eng.Now() }

// NumCores implements Control.
func (s *Server) NumCores() int { return len(s.cores) }

// Ladder implements Control.
func (s *Server) Ladder() cpu.Ladder { return s.cfg.ladder }

// SLA implements Control.
func (s *Server) SLA() sim.Time { return s.prof.SLA }

// RefFreq implements Control.
func (s *Server) RefFreq() cpu.Freq { return s.prof.RefFreq }

// SetFreq implements Control. With a fault injector configured, the request
// may be dropped, delayed, or clamped before it reaches the core. Delayed
// writes model a slow governor thread: at most one apply is in flight per
// core, and when it fires it actuates the *latest* accepted request — newer
// requests update the standing value rather than postponing the apply, so a
// policy hammering the interface still converges instead of livelocking.
// A request above the platform ceiling (SetFreqCeiling) is clamped to it
// and counted in Counters.CappedWrites.
func (s *Server) SetFreq(core int, f cpu.Freq) {
	var delay sim.Time
	if s.cfg.Faults != nil {
		nf, d, drop := s.cfg.Faults.OnFreqSet(s.eng.Now(), core, f)
		if drop {
			return
		}
		f, delay = nf, d
	}
	if s.ceiling > 0 && f > s.ceiling {
		f = s.ceiling
		s.counters.CappedWrites++
	}
	s.wantFreq[core] = f
	if delay > 0 {
		if !s.applyPending[core] {
			s.applyPending[core] = true
			s.eng.After(delay, s.applyFns[core])
		}
		return
	}
	s.applyFreq(core, f)
}

// applyFreq is the actuation path proper: the ceiling in force clamps the
// request, then the core takes it quantized to its ladder.
func (s *Server) applyFreq(core int, f cpu.Freq) {
	if cap := s.freqCap(s.eng.Now(), core); cap > 0 && f > cap {
		f = cap
	}
	s.actuate(s.workers[core], s.cores[core].Ladder().Snap(f))
}

// freqCap is the ceiling in force on core at now (0 = none): the tighter of
// a fault plan's thermal throttle and the platform ceiling.
func (s *Server) freqCap(now sim.Time, core int) cpu.Freq {
	c := s.ceiling
	if s.cfg.Faults != nil {
		if t := s.cfg.Faults.FreqCap(now, core); t > 0 && (c == 0 || t < c) {
			c = t
		}
	}
	return c
}

// SetFreqCeiling sets a platform frequency ceiling on every core, 0 lifting
// it: the limit a fleet's power budget imposes, like cpufreq's
// scaling_max_freq. It is not part of Control, so a policy actuates under it
// and cannot lift it. Governor writes above it are clamped at write time;
// standing targets follow at the next tick, and after a lift the next tick
// restores each core's last accepted request.
func (s *Server) SetFreqCeiling(f cpu.Freq) {
	s.ceiling = f
	if f > 0 {
		s.enforcing = true
	}
}

// actuate hands core-ladder target f to w's core: progress and energy are
// settled under the old frequency schedule first, and a busy worker's
// completion event is moved to its new time afterwards — except for the
// worker whose dispatch is in progress, whose completion dispatch schedules
// once OnDispatch returns.
func (s *Server) actuate(w *worker, f cpu.Freq) {
	now := s.eng.Now()
	s.syncWorker(w, now)
	s.accrueCore(w, now)
	w.core.SetLevel(now, f)
	if w.req != nil && w != s.dispatching {
		s.scheduleCompletion(w)
	}
}

// SetTurbo implements Control. Each core engages its own ladder's turbo
// (identical to the config ladder on homogeneous servers).
func (s *Server) SetTurbo(core int) {
	s.SetFreq(core, s.cores[core].Ladder().Turbo)
}

// SetScore implements Control: the thread-controller mapping of Algorithm 1,
// interpolated on the core's own class ladder.
func (s *Server) SetScore(core int, score float64) {
	if score >= 1 {
		s.SetTurbo(core)
		return
	}
	f := s.cores[core].ScoreLevel(score)
	if s.enforcing {
		s.SetFreq(core, f)
		return
	}
	s.wantFreq[core] = f
	s.actuate(s.workers[core], f)
}

// Freq implements Control.
func (s *Server) Freq(core int) cpu.Freq { return s.cores[core].Target() }

// Sleep implements Control.
func (s *Server) Sleep(core int, state cpu.CState) bool {
	w := s.workers[core]
	if w.req != nil {
		return false
	}
	now := s.eng.Now()
	s.accrueCore(w, now)
	w.core.Sleep(now, state)
	return true
}

// CoreCState implements Control.
func (s *Server) CoreCState(core int) cpu.CState { return s.cores[core].CState() }

// Topology implements Control.
func (s *Server) Topology() *cpu.Topology { return s.topo }

// CoreParked implements Control.
func (s *Server) CoreParked(core int) bool { return s.workers[core].parked }

// SetPlacement implements Control: enable the first counts[c] cores of each
// class and park the rest. Counts are clamped into [0, class size]; a
// request that would disable every thread is ignored (the server never
// deadlocks on a hostile action). Parked busy cores drain their request;
// newly enabled cores immediately drain the queue.
func (s *Server) SetPlacement(counts []int) {
	if s.topo == nil || len(counts) != len(s.topo.Classes) {
		return
	}
	total := 0
	for c, cl := range s.topo.Classes {
		want := counts[c]
		if want < 0 {
			want = 0
		}
		if want > cl.Count {
			want = cl.Count
		}
		total += want
	}
	if total == 0 {
		return
	}
	idx := 0
	for c, cl := range s.topo.Classes {
		want := counts[c]
		if want < 0 {
			want = 0
		}
		if want > cl.Count {
			want = cl.Count
		}
		for i := 0; i < cl.Count; i++ {
			w := s.workers[idx]
			idx++
			park := i >= want
			if park == w.parked {
				continue
			}
			w.parked = park
			s.noteIdle(w)
			if park && w.req == nil {
				// An idle parked core drops to its ladder floor at once;
				// a busy one keeps the controller's schedule while it
				// drains.
				s.SetFreq(w.core.ID(), w.core.Ladder().Min)
			}
		}
	}
	// Newly enabled workers pick up stranded queued requests immediately.
	for s.queue.Len() > 0 {
		w := s.idleWorker()
		if w == nil {
			return
		}
		s.dispatch(w, s.queue.Pop())
	}
}

// CoreRequest implements Control.
func (s *Server) CoreRequest(core int) *Request { return s.workers[core].req }

// QueueLen implements Control.
func (s *Server) QueueLen() int { return s.queue.Len() }

// QueuePeek implements Control.
func (s *Server) QueuePeek(i int) *Request { return s.queue.Peek(i) }

// BusyCores implements Control.
func (s *Server) BusyCores() int { return s.busy }

// Counters implements Control.
func (s *Server) Counters() Counters { return s.counters }

// Energy implements Control. Accounting is settled to the current instant so
// policies reading at agent boundaries see exact interval energy.
func (s *Server) Energy() float64 {
	now := s.eng.Now()
	s.accrueAll(now)
	s.accrueUncore(now)
	return s.meter.Energy()
}

// PredictService implements Control.
func (s *Server) PredictService(ref sim.Time, f cpu.Freq) sim.Time {
	return s.prof.ServiceAt(ref, f)
}

// Snapshot captures the system-information feed the DeepPower state observer
// consumes (§4.4.1): queue length and, for every queued and in-service
// request, the remaining SLA budget.
type Snapshot struct {
	Now      sim.Time
	QueueLen int
	// QueueSLARemaining has one entry per queued request.
	QueueSLARemaining []sim.Time
	// CoreSLARemaining has one entry per busy core.
	CoreSLARemaining []sim.Time
	Counters         Counters
	Energy           float64
	// Classes is the per-class state feed on heterogeneous servers (nil
	// when homogeneous): busy/enabled core counts and cumulative energy
	// attributed to each class's cores.
	Classes []ClassSnap
}

// ClassSnap is one core class's slice of a Snapshot.
type ClassSnap struct {
	Name    string
	Cores   int // cores in the class
	Enabled int // cores not parked by placement
	Busy    int // cores processing a request
	EnergyJ float64
}

// Snapshot builds a point-in-time Snapshot. A configured fault injector
// perturbs it before any policy sees it — noisy, stale, or partial
// telemetry, never the server's own ground-truth accounting. The feed
// slices are the server's scratch, valid until the next Snapshot call.
func (s *Server) Snapshot() Snapshot {
	now := s.eng.Now()
	snap := Snapshot{
		Now:      now,
		QueueLen: s.queue.Len(),
		Counters: s.counters,
		Energy:   s.Energy(),
	}
	if snap.QueueLen > 0 {
		s.snapQueue = s.snapQueue[:0]
		for i := 0; i < snap.QueueLen; i++ {
			s.snapQueue = append(s.snapQueue, s.queue.Peek(i).SLARemaining(now, s.prof.SLA))
		}
		snap.QueueSLARemaining = s.snapQueue
	}
	if s.busy > 0 {
		s.snapCores = s.snapCores[:0]
		for _, w := range s.workers {
			if w.req != nil {
				s.snapCores = append(s.snapCores, w.req.SLARemaining(now, s.prof.SLA))
			}
		}
		snap.CoreSLARemaining = s.snapCores
	}
	if s.topo != nil {
		if s.snapClasses == nil {
			s.snapClasses = make([]ClassSnap, len(s.topo.Classes))
		}
		snap.Classes = s.snapClasses
		idx := 0
		for c, cl := range s.topo.Classes {
			cs := ClassSnap{Name: cl.Name, Cores: cl.Count, EnergyJ: s.classEnergy[c]}
			for i := 0; i < cl.Count; i++ {
				w := s.workers[idx]
				idx++
				if !w.parked {
					cs.Enabled++
				}
				if w.req != nil {
					cs.Busy++
				}
			}
			snap.Classes[c] = cs
		}
	}
	if s.cfg.Faults != nil {
		snap = s.cfg.Faults.PerturbSnapshot(now, snap)
	}
	return snap
}
