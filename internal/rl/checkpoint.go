package rl

import (
	"fmt"
	"io"

	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/nn"
)

// This file implements policy export: the trained network is the one unit
// that crosses a process boundary. Trainer state — critics, optimizer
// moments, RNG positions, replay contents — is never checkpointed.

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
