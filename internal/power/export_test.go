// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package power

import "github.com/deeppower/deeppower/internal/cpu"

// SocketPower returns total package power given each core's frequency and
// activity. The two slices must have equal length.
func (m Model) SocketPower(freqs []cpu.Freq, active []bool) float64 {
	if len(freqs) != len(active) {
		panic("power: freqs/active length mismatch")
	}
	p := m.Uncore
	for i, f := range freqs {
		p += m.CorePower(f, active[i])
	}
	return p
}
