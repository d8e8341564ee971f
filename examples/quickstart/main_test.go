package main

import (
	"os"
	"strings"
	"testing"
)

// TestExampleOutput runs the example and checks one line of what it
// prints.
func TestExampleOutput(t *testing.T) {
	out := captureStdout(t, main)
	const want = "CDM+ACIM:      Articles/Article*/Section - 3 nodes"
	if !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// captureStdout runs f with standard output redirected to a file and
// returns what f printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	f()
	os.Stdout = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
