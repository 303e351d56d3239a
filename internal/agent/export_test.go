// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package agent

import "github.com/deeppower/deeppower/internal/rl"

// Agent exposes the underlying learner (diagnostics, ablations).
func (dp *DeepPower) Agent() *rl.ActorCritic { return dp.codec.(*pairCodec).ActorCritic }

// Agent exposes the underlying DQN learner.
func (dq *DQNPower) Agent() *rl.DQN { return dq.codec.(*lattice).DQN }
