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
	// The line also carries a measured speedup; check the node counts
	// and the answer count only.
	const query = "//Article[Title][Author/LastName]"
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == query {
			if f[1] != "4->1" || f[2] != "500" {
				t.Errorf("%s: nodes %s, answers %s; want 4->1 and 500", query, f[1], f[2])
			}
			return
		}
	}
	t.Errorf("output has no line for %s:\n%s", query, out)
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
