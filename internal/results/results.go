// Package results names the machine a measurement ran on, for the
// benchmark's fingerprint.
package results

import (
	"os"
	"runtime"
	"strings"
)

// CPUModel reports the processor model (from /proc/cpuinfo on Linux),
// falling back to the GOARCH name.
func CPUModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}
