package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path crash-safely: the bytes land in a
// temp file in the same directory, are fsynced, and the temp file is
// atomically renamed over path; the directory is then fsynced so the rename
// itself survives a crash. A reader therefore observes either the old file
// or the complete new one — never a torn write.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure path must remove the temp file so crashed writes cannot
	// accumulate (loads never look at dotfiles, but the directory should
	// not fill with debris either).
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("ckpt: writing %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("ckpt: fsync %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("ckpt: closing %s: %w", path, err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		return cleanup(fmt.Errorf("ckpt: renaming into %s: %w", path, err))
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable. Some
// filesystems refuse to fsync directories; that is not a correctness
// problem for the atomicity guarantee, so such errors are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// ReadFile reads path and validates the container, returning its kind and
// payload.
func ReadFile(path string) (Kind, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	kind, payload, err := Open(data)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return kind, payload, nil
}
