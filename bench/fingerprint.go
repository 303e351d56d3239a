package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/deeppower/deeppower/internal/results"
)

// fingerprint says where and on what a record was measured; every output
// record starts with one, so numbers from two machines are never compared
// by accident.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
	Seed       int64  `json:"seed"`
}

func newFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPU:        results.CPUModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Rev:        gitRev(),
		Seed:       seed,
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("fingerprint cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s seed=%d",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Rev, f.Seed)
}

// gitRev is the build's VCS stamp when the toolchain recorded one, else what
// git says about the working directory, else "unknown" (the driver's
// checkout is not a repository).
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value[:min(12, len(s.Value))]
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look no higher than the working directory for a repository.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
