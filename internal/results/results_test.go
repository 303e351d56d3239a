package results

import "testing"

func TestCPUModelNonEmpty(t *testing.T) {
	if CPUModel() == "" {
		t.Error("CPUModel returned empty string")
	}
}
