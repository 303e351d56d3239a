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
// trainer config; it is re-validated on decode.
func encodeCritic(e *ckpt.Enc, c *Critic) {
	for _, l := range c.layers {
		nn.EncodeDense(e, l)
	}
}

// decodeCritic reads four layers into a critic built from the checkpoint's
// config, validating that each has the shape and activation that config
// implies.
func decodeCritic(dec *ckpt.Dec, c *Critic) error {
	for i, want := range c.layers {
		l, err := nn.DecodeDense(dec, want.In)
		if err != nil {
			return err
		}
		if l.Out != want.Out || l.Act != want.Act {
			return fmt.Errorf("%w: critic layer %d is %d→%d (%v), config declares %d→%d (%v)",
				ckpt.ErrMalformed, i, l.In, l.Out, l.Act, want.In, want.Out, want.Act)
		}
		want.CopyFrom(l)
	}
	return nil
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

// --- actor–critic (DDPG, TD3, SAC) -----------------------------------------

// EncodeCheckpoint appends the learner's complete training state: config,
// every live and target network, optimizer moments, the policy-delay and
// divergence counters and the head's RNG position. Pass the replay pool to
// make the checkpoint fully resumable; nil omits it. The layout is the same
// for every variant except that a head without a target actor writes none;
// the container's kind byte says which variant to rebuild.
func (l *ActorCritic) EncodeCheckpoint(e *ckpt.Enc, replay *Replay) {
	c := l.cfg
	e.Int(c.StateDim)
	e.Int(c.ActionDim)
	e.Ints(c.actorHidden)
	e.Int(c.criticHidden[0])
	e.Int(c.criticHidden[1])
	e.Int(c.criticHidden[2])
	e.Bool(c.TwoHeadActor)
	e.I64(c.Seed)
	nn.EncodeNetwork(e, l.Actor)
	if l.ActorTarget != nil {
		nn.EncodeNetwork(e, l.ActorTarget)
	}
	for _, critic := range l.Critics {
		encodeCritic(e, critic)
	}
	for _, critic := range l.Targets {
		encodeCritic(e, critic)
	}
	l.actorOpt.EncodeState(e)
	for _, opt := range l.criticOpts {
		opt.EncodeState(e)
	}
	e.Int(l.updates)
	e.U64(l.guard.divergences)
	var draws uint64
	if l.rng != nil {
		draws = l.rng.DrawCount()
	}
	e.U64(draws)
	encodeOptionalReplay(e, replay)
}

// Checkpoint returns the sealed container: KindDDPG, KindTD3 or KindSAC.
func (l *ActorCritic) Checkpoint(replay *Replay) []byte {
	var e ckpt.Enc
	l.EncodeCheckpoint(&e, replay)
	return ckpt.Seal(l.v.kind, e.Bytes())
}

// LoadCheckpoint rebuilds an actor–critic learner of the variant the
// container's kind names (and its replay pool, when the checkpoint carries
// one). Training resumed from the result is bitwise identical to the
// uninterrupted run.
func LoadCheckpoint(data []byte) (*ActorCritic, *Replay, error) {
	kind, payload, err := ckpt.Open(data)
	if err != nil {
		return nil, nil, err
	}
	var v *variant
	for _, cand := range variants {
		if cand.kind == kind {
			v = cand
		}
	}
	if v == nil {
		return nil, nil, fmt.Errorf("%w: %v is not an actor–critic checkpoint", ckpt.ErrKind, kind)
	}
	dec := ckpt.NewDec(payload)
	var cfg DDPGConfig
	cfg.StateDim = dec.Int()
	cfg.ActionDim = dec.Int()
	cfg.actorHidden = dec.Ints()
	cfg.criticHidden[0] = dec.Int()
	cfg.criticHidden[1] = dec.Int()
	cfg.criticHidden[2] = dec.Int()
	cfg.TwoHeadActor = dec.Bool()
	cfg.Seed = dec.I64()
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	l, err := newActorCritic(cfg, v)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint config rejected: %v", ckpt.ErrMalformed, err)
	}
	actorOut := l.Actor.OutDim()
	if l.Actor, err = decodeActorNet(dec, cfg.StateDim, actorOut); err != nil {
		return nil, nil, err
	}
	if l.ActorTarget != nil {
		if l.ActorTarget, err = decodeActorNet(dec, cfg.StateDim, actorOut); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range append(append([]*Critic(nil), l.Critics...), l.Targets...) {
		if err := decodeCritic(dec, c); err != nil {
			return nil, nil, err
		}
	}
	l.resetOptimizers()
	l.rewire()
	for _, opt := range append([]*nn.Adam{l.actorOpt}, l.criticOpts...) {
		if err := opt.RestoreState(dec); err != nil {
			return nil, nil, err
		}
	}
	l.updates = dec.Int()
	l.guard.divergences = dec.U64()
	draws := dec.U64()
	replay, err := decodeOptionalReplay(dec)
	if err != nil {
		return nil, nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, err
	}
	if l.updates < 0 {
		return nil, nil, fmt.Errorf("%w: negative update counter %d", ckpt.ErrMalformed, l.updates)
	}
	if l.rng != nil {
		l.rng = sim.NewRNGAt(sim.SubSeed(l.cfg.Seed, v.draws), draws)
	}
	return l, replay, nil
}

// --- DQN -------------------------------------------------------------------

// EncodeCheckpoint appends the agent's complete training state, including
// the divergence counter and the exploration RNG position.
func (d *DQN) EncodeCheckpoint(e *ckpt.Enc, replay *Replay) {
	c := d.cfg
	e.Int(c.StateDim)
	e.Int(c.NumActions)
	e.Ints(c.hidden)
	e.Bool(c.Double)
	e.I64(c.Seed)
	nn.EncodeNetwork(e, d.Q)
	nn.EncodeNetwork(e, d.Target)
	d.opt.EncodeState(e)
	e.U64(d.guard.divergences)
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
	cfg.hidden = dec.Ints()
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
	d.rewire()
	if err := d.opt.RestoreState(dec); err != nil {
		return nil, nil, err
	}
	d.guard.divergences = dec.U64()
	draws := dec.U64()
	replay, err := decodeOptionalReplay(dec)
	if err != nil {
		return nil, nil, err
	}
	if err := dec.Finish(); err != nil {
		return nil, nil, err
	}
	d.rng = sim.NewRNGAt(sim.SubSeed(d.cfg.Seed, "dqn-explore"), draws)
	return d, replay, nil
}
