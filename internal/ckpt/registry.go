package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Registry errors.
var (
	// ErrNoCurrent marks a registry with no promoted version.
	ErrNoCurrent = errors.New("ckpt: registry has no promoted version")
	// ErrNoVersion marks a lookup of a version the registry does not hold.
	ErrNoVersion = errors.New("ckpt: no such version in registry")
	// ErrNoFallback marks a rollback with no earlier good version to fall
	// back to.
	ErrNoFallback = errors.New("ckpt: no earlier version to roll back to")
)

// historyFile is the registry's single piece of mutable state: the promotion
// history, one version number per line, oldest first. The last line is the
// current version. It is rewritten atomically on every Promote/Rollback, so
// a crash leaves either the old history or the new one — never a torn file.
const historyFile = "HISTORY"

// Registry is a versioned policy store over a directory. Each Put writes a
// sealed container to v<NNNN>.ckpt crash-safely and returns its version;
// Promote appends that version to the promotion history; Rollback pops the
// history so Current becomes the previous good version. The trainer Puts and
// Promotes periodically; the guard Rollbacks when a promoted policy turns
// out to breach the SLA in production.
//
// A Registry is single-writer: the training/serving process owns the
// directory. Reads tolerate concurrent readers.
type Registry struct {
	dir     string
	next    int   // next version number to assign
	history []int // promotion history, oldest first; last is current
}

// OpenRegistry opens (creating if needed) a registry rooted at dir and
// recovers its state from the directory contents and HISTORY file.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating registry dir: %w", err)
	}
	r := &Registry{dir: dir, next: 1}
	versions, err := r.scan()
	if err != nil {
		return nil, err
	}
	if len(versions) > 0 {
		r.next = versions[len(versions)-1] + 1
	}
	if err := r.loadHistory(versions); err != nil {
		return nil, err
	}
	return r, nil
}

// scan lists the stored version numbers in ascending order.
func (r *Registry) scan() ([]int, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading registry dir: %w", err)
	}
	var versions []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".ckpt"))
		if err != nil || v <= 0 {
			continue
		}
		versions = append(versions, v)
	}
	sort.Ints(versions)
	return versions, nil
}

// loadHistory reads the HISTORY file, dropping entries whose checkpoint file
// has vanished (a crash between file deletion and history rewrite must not
// leave the registry pointing at nothing).
func (r *Registry) loadHistory(stored []int) error {
	data, err := os.ReadFile(filepath.Join(r.dir, historyFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ckpt: reading registry history: %w", err)
	}
	have := make(map[int]bool, len(stored))
	for _, v := range stored {
		have[v] = true
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return fmt.Errorf("%w: registry history line %q", ErrMalformed, line)
		}
		if have[v] {
			r.history = append(r.history, v)
		}
	}
	return nil
}

// writeHistory atomically rewrites the HISTORY file from r.history.
func (r *Registry) writeHistory() error {
	var b strings.Builder
	for _, v := range r.history {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return WriteFileAtomic(filepath.Join(r.dir, historyFile), []byte(b.String()))
}

// path returns the file path for a version.
func (r *Registry) path(version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("v%04d.ckpt", version))
}

// Put validates data as a sealed container, writes it crash-safely, and
// returns the assigned version. Put does not promote: a freshly trained
// policy becomes servable only after an explicit Promote.
func (r *Registry) Put(data []byte) (int, error) {
	if _, _, err := Open(data); err != nil {
		return 0, fmt.Errorf("ckpt: refusing to store invalid container: %w", err)
	}
	v := r.next
	if err := WriteFileAtomic(r.path(v), data); err != nil {
		return 0, err
	}
	r.next = v + 1
	return v, nil
}

// Get reads and validates a stored version.
func (r *Registry) Get(version int) (Kind, []byte, error) {
	kind, payload, err := ReadFile(r.path(version))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, fmt.Errorf("%w: v%d", ErrNoVersion, version)
		}
		return 0, nil, err
	}
	return kind, payload, nil
}

// Promote marks version as current, appending it to the promotion history.
// Promoting the already-current version is a no-op.
func (r *Registry) Promote(version int) error {
	if _, err := os.Stat(r.path(version)); err != nil {
		return fmt.Errorf("%w: v%d", ErrNoVersion, version)
	}
	if n := len(r.history); n > 0 && r.history[n-1] == version {
		return nil
	}
	r.history = append(r.history, version)
	if err := r.writeHistory(); err != nil {
		r.history = r.history[:len(r.history)-1]
		return err
	}
	return nil
}

// Rollback abandons the current version and returns the previous good
// version, which becomes current. It fails with ErrNoFallback when the
// history has no earlier entry — the caller's escalation ladder must then
// proceed to its next rung (for the guard: pin max frequency).
func (r *Registry) Rollback() (int, error) {
	if len(r.history) == 0 {
		return 0, ErrNoCurrent
	}
	if len(r.history) == 1 {
		return 0, ErrNoFallback
	}
	popped := r.history[len(r.history)-1]
	r.history = r.history[:len(r.history)-1]
	if err := r.writeHistory(); err != nil {
		r.history = append(r.history, popped)
		return 0, err
	}
	return r.history[len(r.history)-1], nil
}

// Current returns the promoted version, or ErrNoCurrent.
func (r *Registry) Current() (int, error) {
	if len(r.history) == 0 {
		return 0, ErrNoCurrent
	}
	return r.history[len(r.history)-1], nil
}

// GetCurrent reads and validates the currently promoted version.
func (r *Registry) GetCurrent() (int, Kind, []byte, error) {
	v, err := r.Current()
	if err != nil {
		return 0, 0, nil, err
	}
	kind, payload, err := r.Get(v)
	return v, kind, payload, err
}

// History returns a copy of the promotion history, oldest first.
func (r *Registry) History() []int {
	out := make([]int, len(r.history))
	copy(out, r.history)
	return out
}

// Versions returns the stored version numbers in ascending order (stored,
// not necessarily ever promoted).
func (r *Registry) Versions() ([]int, error) { return r.scan() }
