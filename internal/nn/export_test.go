// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package nn

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/ckpt"
)

// CheckFinite verifies every weight and bias in the network is finite —
// the last line of defense before a loaded policy starts actuating
// frequencies.
//
// Parked, not an observer: only its own tests read it. ROADMAP's
// reachability item deletes it with those tests.
func CheckFinite(n Network) error {
	for li, l := range n.Params() {
		for _, v := range l.W {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: weight in layer %d", ckpt.ErrNonFinite, li)
			}
		}
		for _, v := range l.B {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: bias in layer %d", ckpt.ErrNonFinite, li)
			}
		}
	}
	return nil
}
