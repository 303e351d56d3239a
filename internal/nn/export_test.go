package nn

import "testing"

// forEachKernel runs f as a subtest on every kernel path this build can
// take: "portable", the Go kernels, always; "avx2", the vector kernels of
// dense_amd64.go, when the machine and the build select them (never under
// -race, never off amd64). The package's choice is restored afterwards.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	useAVX2 = false
	t.Run("portable", f)
	if detected {
		useAVX2 = true
		t.Run("avx2", f)
	}
}

// onPortable runs f with the portable kernels forced, then restores the
// package's choice.
func onPortable(f func()) {
	defer func(on bool) { useAVX2 = on }(useAVX2)
	useAVX2 = false
	f()
}
