package rl

import (
	"fmt"
	"io"

	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// This file implements full trainer checkpoints: every live and target
// network, optimizer moments, internal RNG positions, counters, and
// (optionally) the replay pool, so that "train N steps → checkpoint →
// restart → train M steps" is bitwise identical to an uninterrupted N+M run.
//
// Each payload starts with the trainer's resolved config (the shape header),
// so the loader can rebuild the exact object graph before installing the
// serialized weights. Encoding into a reused ckpt.Enc is allocation-free at
// steady state; decoding validates shapes, chaining, and finiteness at every
// layer and fails with typed ckpt errors.

// --- shared pieces ---------------------------------------------------------

// encodeCritic appends the critic's four layers. Shape comes from the
// trainer config; chaining is re-validated on decode.
func encodeCritic(e *ckpt.Enc, c *Critic) {
	nn.EncodeDense(e, c.l1)
	nn.EncodeDense(e, c.l2)
	nn.EncodeDense(e, c.l3)
	nn.EncodeDense(e, c.out)
}

// decodeCritic reads four layers and rebuilds a critic for the given
// state/action dims, validating the concat wiring and hidden sizes.
func decodeCritic(dec *ckpt.Dec, stateDim, actionDim int, hidden [3]int) (*Critic, error) {
	l1, err := nn.DecodeDense(dec, stateDim)
	if err != nil {
		return nil, err
	}
	l2, err := nn.DecodeDense(dec, l1.Out+actionDim)
	if err != nil {
		return nil, err
	}
	l3, err := nn.DecodeDense(dec, l2.Out)
	if err != nil {
		return nil, err
	}
	out, err := nn.DecodeDense(dec, l3.Out)
	if err != nil {
		return nil, err
	}
	if l1.Out != hidden[0] || l2.Out != hidden[1] || l3.Out != hidden[2] || out.Out != 1 {
		return nil, fmt.Errorf("%w: critic hidden sizes (%d,%d,%d,%d) do not match config (%d,%d,%d,1)",
			ckpt.ErrMalformed, l1.Out, l2.Out, l3.Out, out.Out, hidden[0], hidden[1], hidden[2])
	}
	c := &Critic{
		l1: l1, l2: l2, l3: l3, out: out,
		stateDim:  stateDim,
		actionDim: actionDim,
		concat:    make([]float64, l1.Out+actionDim),
		daction:   make([]float64, actionDim),
	}
	c.layers = []*nn.Dense{c.l1, c.l2, c.l3, c.out}
	return c, nil
}

// decodeActorNet reads a network and checks its interface dims.
func decodeActorNet(dec *ckpt.Dec, inDim, outDim int) (nn.Network, error) {
	n, err := nn.DecodeNetwork(dec)
	if err != nil {
		return nil, err
	}
	if n.InDim() != inDim || n.OutDim() != outDim {
		return nil, fmt.Errorf("%w: network is %d→%d, config declares %d→%d",
			ckpt.ErrMalformed, n.InDim(), n.OutDim(), inDim, outDim)
	}
	return n, nil
}

func encodeOptionalReplay(e *ckpt.Enc, rp *Replay) {
	if rp == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	rp.Encode(e)
}

func decodeOptionalReplay(dec *ckpt.Dec) (*Replay, error) {
	present := dec.Bool()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	return DecodeReplay(dec)
}

// restoredStream rebuilds a trainer's named RNG substream at a serialized
// draw position (see sim.NewRNGAt).
func restoredStream(seed int64, name string, draws uint64) *sim.RNG {
	return sim.NewRNGAt(sim.SubSeed(seed, name), draws)
}

// --- replay ----------------------------------------------------------------

// Encode appends the pool's complete state: geometry, sampler RNG position,
// and every stored transition. Transition values round-trip exactly (bit
// patterns), including any non-finite values faulted telemetry may have
// injected — the divergence guards handle those at train time, as they did
// in the original run.
func (rp *Replay) Encode(e *ckpt.Enc) {
	e.Int(rp.cap)
	e.Int(rp.next)
	e.Bool(rp.full)
	e.I64(rp.rng.Seed())
	e.U64(rp.rng.DrawCount())
	e.Int(rp.n)
	for i := 0; i < rp.n; i++ {
		t := rp.slot(i)
		e.F64s(t.State)
		e.F64s(t.Action)
		e.F64(t.Reward)
		e.F64s(t.NextState)
		e.Bool(t.Done)
	}
}

// DecodeReplay reads a pool written by Replay.Encode, rebuilding the sampler
// RNG mid-stream so subsequent minibatch draws match the original run.
func DecodeReplay(dec *ckpt.Dec) (*Replay, error) {
	capacity := dec.Int()
	next := dec.Int()
	full := dec.Bool()
	seed := dec.I64()
	draws := dec.U64()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	// A ring has wrapped only once it is full, and only a wrapped ring has a
	// non-zero eviction slot; anything else would index slots never written.
	if capacity <= 0 || n < 0 || n > capacity || next < 0 || next >= capacity ||
		(full && n != capacity) || (!full && next != 0) {
		return nil, fmt.Errorf("%w: replay geometry cap=%d len=%d next=%d full=%v",
			ckpt.ErrMalformed, capacity, n, next, full)
	}
	// capacity and n are header claims: storage grows one block per 1024
	// transitions actually decoded, so a frame cannot reserve more memory
	// than its own payload backs.
	rp := &Replay{
		cap:  capacity,
		next: next,
		full: full,
		// The write cursor is a telemetry counter (experience throughput),
		// not training state; restarts resume it from the retained count.
		pushed: uint64(n),
		rng:    sim.NewRNGAt(seed, draws),
	}
	for i := 0; i < n; i++ {
		t := Transition{
			State:     dec.F64s(),
			Action:    dec.F64s(),
			Reward:    dec.F64(),
			NextState: dec.F64s(),
			Done:      dec.Bool(),
		}
		if err := dec.Err(); err != nil {
			return nil, err
		}
		rp.appendSlot(t)
	}
	return rp, nil
}

// --- policy export ---------------------------------------------------------

// savePolicyNet writes net as a sealed KindPolicy container — the unit the
// registry stores and the serving path consumes.
func savePolicyNet(w io.Writer, net nn.Network) error {
	var e ckpt.Enc
	nn.EncodeNetwork(&e, net)
	if _, err := w.Write(ckpt.Seal(ckpt.KindPolicy, e.Bytes())); err != nil {
		return fmt.Errorf("rl: writing policy: %w", err)
	}
	return nil
}

// loadPolicyNet reads an exported policy. The sealed container is the only
// format: anything else fails with ckpt's typed error for what is wrong with
// it (ErrTruncated, ErrBadMagic, ErrVersion, ErrChecksum, ErrKind).
func loadPolicyNet(r io.Reader) (nn.Network, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rl: reading policy: %w", err)
	}
	payload, err := ckpt.OpenKind(data, ckpt.KindPolicy)
	if err != nil {
		return nil, err
	}
	return DecodePolicy(payload)
}

// DecodePolicy decodes the payload of a KindPolicy container into a network
// (for callers holding an already-opened container, e.g. the registry path).
func DecodePolicy(payload []byte) (nn.Network, error) {
	dec := ckpt.NewDec(payload)
	net, err := nn.DecodeNetwork(dec)
	if err != nil {
		return nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, err
	}
	return net, nil
}

// EncodePolicy seals a network as a KindPolicy container — the inverse of
// DecodePolicy.
func EncodePolicy(net nn.Network) []byte {
	var e ckpt.Enc
	nn.EncodeNetwork(&e, net)
	return ckpt.Seal(ckpt.KindPolicy, e.Bytes())
}

// --- DDPG ------------------------------------------------------------------

// EncodeCheckpoint appends the agent's complete training state. Pass the
// replay pool to make the checkpoint fully resumable; nil omits it.
func (d *DDPG) EncodeCheckpoint(e *ckpt.Enc, replay *Replay) {
	c := d.cfg
	e.Int(c.StateDim)
	e.Int(c.ActionDim)
	e.Ints(c.ActorHidden)
	e.Int(c.CriticHidden[0])
	e.Int(c.CriticHidden[1])
	e.Int(c.CriticHidden[2])
	e.F64(c.ActorLR)
	e.F64(c.CriticLR)
	e.F64(c.Gamma)
	e.F64(c.Tau)
	e.Bool(c.TwoHeadActor)
	e.I64(c.Seed)
	nn.EncodeNetwork(e, d.Actor)
	nn.EncodeNetwork(e, d.ActorTarget)
	encodeCritic(e, d.Critic)
	encodeCritic(e, d.CriticTarget)
	d.actorOpt.EncodeState(e)
	d.criticOpt.EncodeState(e)
	e.U64(d.divergences)
	encodeOptionalReplay(e, replay)
}

// Checkpoint returns the sealed KindDDPG container.
func (d *DDPG) Checkpoint(replay *Replay) []byte {
	var e ckpt.Enc
	d.EncodeCheckpoint(&e, replay)
	return ckpt.Seal(ckpt.KindDDPG, e.Bytes())
}

// LoadDDPGCheckpoint rebuilds an agent (and its replay pool, when the
// checkpoint carries one) from a sealed container. Training resumed from the
// result is bitwise identical to the uninterrupted run.
func LoadDDPGCheckpoint(data []byte) (*DDPG, *Replay, error) {
	payload, err := ckpt.OpenKind(data, ckpt.KindDDPG)
	if err != nil {
		return nil, nil, err
	}
	dec := ckpt.NewDec(payload)
	var cfg DDPGConfig
	cfg.StateDim = dec.Int()
	cfg.ActionDim = dec.Int()
	cfg.ActorHidden = dec.Ints()
	cfg.CriticHidden[0] = dec.Int()
	cfg.CriticHidden[1] = dec.Int()
	cfg.CriticHidden[2] = dec.Int()
	cfg.ActorLR = dec.FiniteF64()
	cfg.CriticLR = dec.FiniteF64()
	cfg.Gamma = dec.FiniteF64()
	cfg.Tau = dec.FiniteF64()
	cfg.TwoHeadActor = dec.Bool()
	cfg.Seed = dec.I64()
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	d, err := NewDDPG(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint config rejected: %v", ckpt.ErrMalformed, err)
	}
	if d.Actor, err = decodeActorNet(dec, cfg.StateDim, cfg.ActionDim); err != nil {
		return nil, nil, err
	}
	if d.ActorTarget, err = decodeActorNet(dec, cfg.StateDim, cfg.ActionDim); err != nil {
		return nil, nil, err
	}
	if d.Critic, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, d.cfg.CriticHidden); err != nil {
		return nil, nil, err
	}
	if d.CriticTarget, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, d.cfg.CriticHidden); err != nil {
		return nil, nil, err
	}
	d.actorOpt = nn.NewAdam(d.Actor.Params(), d.cfg.ActorLR)
	d.criticOpt = nn.NewAdam(d.Critic.Layers(), d.cfg.CriticLR)
	if err := d.actorOpt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	if err := d.criticOpt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	d.divergences = dec.U64()
	replay, err := decodeOptionalReplay(dec)
	if err != nil {
		return nil, nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, err
	}
	d.rebuildCaches()
	return d, replay, nil
}

// --- TD3 -------------------------------------------------------------------

// EncodeCheckpoint appends the agent's complete training state, including
// the target-smoothing RNG position and the policy-delay counter.
func (t *TD3) EncodeCheckpoint(e *ckpt.Enc, replay *Replay) {
	c := t.cfg
	e.Int(c.StateDim)
	e.Int(c.ActionDim)
	e.Ints(c.ActorHidden)
	e.Int(c.CriticHidden[0])
	e.Int(c.CriticHidden[1])
	e.Int(c.CriticHidden[2])
	e.F64(c.ActorLR)
	e.F64(c.CriticLR)
	e.F64(c.Gamma)
	e.F64(c.Tau)
	e.Int(c.PolicyDelay)
	e.F64(c.TargetNoise)
	e.F64(c.NoiseClip)
	e.I64(c.Seed)
	nn.EncodeNetwork(e, t.Actor)
	nn.EncodeNetwork(e, t.ActorTarget)
	encodeCritic(e, t.Critic1)
	encodeCritic(e, t.Critic2)
	encodeCritic(e, t.Target1)
	encodeCritic(e, t.Target2)
	t.actorOpt.EncodeState(e)
	t.c1Opt.EncodeState(e)
	t.c2Opt.EncodeState(e)
	e.Int(t.updates)
	e.U64(t.rng.DrawCount())
	encodeOptionalReplay(e, replay)
}

// Checkpoint returns the sealed KindTD3 container.
func (t *TD3) Checkpoint(replay *Replay) []byte {
	var e ckpt.Enc
	t.EncodeCheckpoint(&e, replay)
	return ckpt.Seal(ckpt.KindTD3, e.Bytes())
}

// LoadTD3Checkpoint rebuilds an agent from a sealed container.
func LoadTD3Checkpoint(data []byte) (*TD3, *Replay, error) {
	payload, err := ckpt.OpenKind(data, ckpt.KindTD3)
	if err != nil {
		return nil, nil, err
	}
	dec := ckpt.NewDec(payload)
	var cfg TD3Config
	cfg.StateDim = dec.Int()
	cfg.ActionDim = dec.Int()
	cfg.ActorHidden = dec.Ints()
	cfg.CriticHidden[0] = dec.Int()
	cfg.CriticHidden[1] = dec.Int()
	cfg.CriticHidden[2] = dec.Int()
	cfg.ActorLR = dec.FiniteF64()
	cfg.CriticLR = dec.FiniteF64()
	cfg.Gamma = dec.FiniteF64()
	cfg.Tau = dec.FiniteF64()
	cfg.PolicyDelay = dec.Int()
	cfg.TargetNoise = dec.FiniteF64()
	cfg.NoiseClip = dec.FiniteF64()
	cfg.Seed = dec.I64()
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	t, err := NewTD3(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint config rejected: %v", ckpt.ErrMalformed, err)
	}
	if t.Actor, err = decodeActorNet(dec, cfg.StateDim, cfg.ActionDim); err != nil {
		return nil, nil, err
	}
	if t.ActorTarget, err = decodeActorNet(dec, cfg.StateDim, cfg.ActionDim); err != nil {
		return nil, nil, err
	}
	hid := t.cfg.CriticHidden
	if t.Critic1, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	if t.Critic2, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	if t.Target1, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	if t.Target2, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	t.actorOpt = nn.NewAdam(t.Actor.Params(), t.cfg.ActorLR)
	t.c1Opt = nn.NewAdam(t.Critic1.Layers(), t.cfg.CriticLR)
	t.c2Opt = nn.NewAdam(t.Critic2.Layers(), t.cfg.CriticLR)
	if err := t.actorOpt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	if err := t.c1Opt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	if err := t.c2Opt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	updates := dec.Int()
	draws := dec.U64()
	replay, err := decodeOptionalReplay(dec)
	if err != nil {
		return nil, nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, err
	}
	if updates < 0 {
		return nil, nil, fmt.Errorf("%w: negative update counter %d", ckpt.ErrMalformed, updates)
	}
	t.updates = updates
	t.rng = restoredStream(t.cfg.Seed, "td3-smooth", draws)
	return t, replay, nil
}

// --- SAC -------------------------------------------------------------------

// EncodeCheckpoint appends the agent's complete training state, including
// the reparameterization-sampling RNG position.
func (s *SAC) EncodeCheckpoint(e *ckpt.Enc, replay *Replay) {
	c := s.cfg
	e.Int(c.StateDim)
	e.Int(c.ActionDim)
	e.Ints(c.Hidden)
	e.Int(c.CriticHidden[0])
	e.Int(c.CriticHidden[1])
	e.Int(c.CriticHidden[2])
	e.F64(c.LR)
	e.F64(c.Gamma)
	e.F64(c.Tau)
	e.F64(c.Alpha)
	e.I64(c.Seed)
	nn.EncodeNetwork(e, s.Actor)
	encodeCritic(e, s.Critic1)
	encodeCritic(e, s.Critic2)
	encodeCritic(e, s.Target1)
	encodeCritic(e, s.Target2)
	s.actorOpt.EncodeState(e)
	s.c1Opt.EncodeState(e)
	s.c2Opt.EncodeState(e)
	e.U64(s.rng.DrawCount())
	encodeOptionalReplay(e, replay)
}

// Checkpoint returns the sealed KindSAC container.
func (s *SAC) Checkpoint(replay *Replay) []byte {
	var e ckpt.Enc
	s.EncodeCheckpoint(&e, replay)
	return ckpt.Seal(ckpt.KindSAC, e.Bytes())
}

// LoadSACCheckpoint rebuilds an agent from a sealed container.
func LoadSACCheckpoint(data []byte) (*SAC, *Replay, error) {
	payload, err := ckpt.OpenKind(data, ckpt.KindSAC)
	if err != nil {
		return nil, nil, err
	}
	dec := ckpt.NewDec(payload)
	var cfg SACConfig
	cfg.StateDim = dec.Int()
	cfg.ActionDim = dec.Int()
	cfg.Hidden = dec.Ints()
	cfg.CriticHidden[0] = dec.Int()
	cfg.CriticHidden[1] = dec.Int()
	cfg.CriticHidden[2] = dec.Int()
	cfg.LR = dec.FiniteF64()
	cfg.Gamma = dec.FiniteF64()
	cfg.Tau = dec.FiniteF64()
	cfg.Alpha = dec.FiniteF64()
	cfg.Seed = dec.I64()
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	s, err := NewSAC(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint config rejected: %v", ckpt.ErrMalformed, err)
	}
	actor, err := decodeActorNet(dec, cfg.StateDim, 2*cfg.ActionDim)
	if err != nil {
		return nil, nil, err
	}
	mlp, ok := actor.(*nn.MLP)
	if !ok {
		return nil, nil, fmt.Errorf("%w: SAC actor must be sequential, found %T", ckpt.ErrMalformed, actor)
	}
	s.Actor = mlp
	hid := s.cfg.CriticHidden
	if s.Critic1, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	if s.Critic2, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	if s.Target1, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	if s.Target2, err = decodeCritic(dec, cfg.StateDim, cfg.ActionDim, hid); err != nil {
		return nil, nil, err
	}
	s.actorOpt = nn.NewAdam(s.Actor.Layers, s.cfg.LR)
	s.c1Opt = nn.NewAdam(s.Critic1.Layers(), s.cfg.LR)
	s.c2Opt = nn.NewAdam(s.Critic2.Layers(), s.cfg.LR)
	if err := s.actorOpt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	if err := s.c1Opt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	if err := s.c2Opt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	draws := dec.U64()
	replay, err := decodeOptionalReplay(dec)
	if err != nil {
		return nil, nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, err
	}
	s.rng = restoredStream(s.cfg.Seed, "sac-sample", draws)
	return s, replay, nil
}

// --- DQN -------------------------------------------------------------------

// EncodeCheckpoint appends the agent's complete training state, including
// the exploration RNG position.
func (d *DQN) EncodeCheckpoint(e *ckpt.Enc, replay *Replay) {
	c := d.cfg
	e.Int(c.StateDim)
	e.Int(c.NumActions)
	e.Ints(c.Hidden)
	e.F64(c.LR)
	e.F64(c.Gamma)
	e.F64(c.Tau)
	e.Bool(c.Double)
	e.I64(c.Seed)
	nn.EncodeNetwork(e, d.Q)
	nn.EncodeNetwork(e, d.Target)
	d.opt.EncodeState(e)
	e.U64(d.rng.DrawCount())
	encodeOptionalReplay(e, replay)
}

// Checkpoint returns the sealed KindDQN container.
func (d *DQN) Checkpoint(replay *Replay) []byte {
	var e ckpt.Enc
	d.EncodeCheckpoint(&e, replay)
	return ckpt.Seal(ckpt.KindDQN, e.Bytes())
}

// LoadDQNCheckpoint rebuilds an agent from a sealed container.
func LoadDQNCheckpoint(data []byte) (*DQN, *Replay, error) {
	payload, err := ckpt.OpenKind(data, ckpt.KindDQN)
	if err != nil {
		return nil, nil, err
	}
	dec := ckpt.NewDec(payload)
	var cfg DQNConfig
	cfg.StateDim = dec.Int()
	cfg.NumActions = dec.Int()
	cfg.Hidden = dec.Ints()
	cfg.LR = dec.FiniteF64()
	cfg.Gamma = dec.FiniteF64()
	cfg.Tau = dec.FiniteF64()
	cfg.Double = dec.Bool()
	cfg.Seed = dec.I64()
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	d, err := NewDQN(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint config rejected: %v", ckpt.ErrMalformed, err)
	}
	for _, dst := range []**nn.MLP{&d.Q, &d.Target} {
		net, err := decodeActorNet(dec, cfg.StateDim, cfg.NumActions)
		if err != nil {
			return nil, nil, err
		}
		mlp, ok := net.(*nn.MLP)
		if !ok {
			return nil, nil, fmt.Errorf("%w: DQN network must be sequential, found %T", ckpt.ErrMalformed, net)
		}
		*dst = mlp
	}
	d.opt = nn.NewAdam(d.Q.Layers, d.cfg.LR)
	if err := d.opt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	draws := dec.U64()
	replay, err := decodeOptionalReplay(dec)
	if err != nil {
		return nil, nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, err
	}
	d.rng = restoredStream(d.cfg.Seed, "dqn-explore", draws)
	return d, replay, nil
}
