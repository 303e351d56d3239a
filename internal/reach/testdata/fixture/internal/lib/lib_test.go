package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}

func TestOnlyTestSetsIt(t *testing.T) {
	if Size(Config{TestOnly: 1}) != 4 {
		t.Fatal("Size")
	}
}
