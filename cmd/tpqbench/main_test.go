package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestSingleFigureTable(t *testing.T) {
	out, stderr, code := runCmd(t, "-fig", "9b", "-quick", "-budget", "1ms", "-runs", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"Figure 9(b)", "ACIM", "CDMACIM", "QuerySize"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	out, _, code := runCmd(t, "-fig", "motivation", "-quick", "-budget", "1ms", "-runs", "1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "series,x,micros") {
		t.Errorf("no CSV header:\n%s", out)
	}
	if !strings.Contains(out, "Original,") || !strings.Contains(out, "Minimized,") {
		t.Errorf("CSV rows missing:\n%s", out)
	}
}

func TestUnknownFigure(t *testing.T) {
	_, stderr, code := runCmd(t, "-fig", "13c")
	if code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("exit %d, stderr %q", code, stderr)
	}
}

func TestBadFlag(t *testing.T) {
	if _, _, code := runCmd(t, "-nope"); code != 2 {
		t.Errorf("exit %d", code)
	}
}

// TestProfilesInEveryMode: -cpuprofile and -memprofile write non-empty
// profiles in table, CSV, JSON and compare mode alike.
func TestProfilesInEveryMode(t *testing.T) {
	dir := t.TempDir()
	quick := []string{"-fig", "9b", "-quick", "-budget", "1ms", "-runs", "1"}
	base := filepath.Join(dir, "BENCH_9b.json")
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"table", quick},
		{"csv", append([]string{"-csv"}, quick...)},
		{"json", append([]string{"-json", "-outdir", dir}, quick...)},
		{"compare", []string{"-compare", base, base}},
	} {
		cpu, mem := filepath.Join(dir, mode.name+".cpu"), filepath.Join(dir, mode.name+".mem")
		args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, mode.args...)
		if _, stderr, code := runCmd(t, args...); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", mode.name, code, stderr)
		}
		for _, path := range []string{cpu, mem} {
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", mode.name, filepath.Base(path), err)
			}
		}
	}
}
