package server

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// WarmStart reports whether New seeded the server's free lists from an
// earlier run's store.
func (s *Server) WarmStart() bool {
	return len(s.reqFree) > 0 || len(s.jobFree) > 0 || len(s.latencies.spare) > 0
}
