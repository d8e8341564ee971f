package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpq/internal/bench"
	"tpq/internal/benchjson"
)

// writeBenchFile drops a hand-built BENCH json fixture for the compare
// tests — no benchmarks run, the gate logic is what is under test.
func writeBenchFile(t *testing.T, path string, results ...benchjson.Result) {
	t.Helper()
	data, err := json.Marshal(benchjson.File{Schema: benchjson.Schema, Figure: "test", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func res(name string, ns float64) benchjson.Result {
	return benchjson.Result{Name: name, Figure: "test", NsPerOp: ns}
}

func TestJSONMode(t *testing.T) {
	dir := t.TempDir()
	out, stderr, code := runCmd(t, "-json", "-quick", "-budget", "1ms", "-runs", "1", "-outdir", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	// Every pinned figure, the six paper panels among them, gets a file.
	for _, name := range []string{"BENCH_7a.json", "BENCH_7b.json", "BENCH_8a.json", "BENCH_8b.json",
		"BENCH_9a.json", "BENCH_9b.json", "BENCH_service.json"} {
		path := filepath.Join(dir, name)
		if !strings.Contains(out, name) {
			t.Errorf("stdout does not mention %s:\n%s", name, out)
		}
		f, err := bench.ReadJSON(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Schema != benchjson.Schema || len(f.Results) == 0 {
			t.Fatalf("%s: schema %q, %d results", name, f.Schema, len(f.Results))
		}
		for _, r := range f.Results {
			if r.Name == "" || r.NsPerOp <= 0 {
				t.Errorf("%s: degenerate result %+v", name, r)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_motivation.json")); !os.IsNotExist(err) {
		t.Error("-json without -fig ran a figure that is not pinned")
	}
	// The measured 7b results carry the per-phase breakdown the CI gate
	// graphs. The chase-plan series measures augmentation alone, so its
	// invariant counter is the witness count; the pipeline series count
	// tests. The tables series is a share of the pipeline run, not a run
	// of its own.
	f, _ := bench.ReadJSON(filepath.Join(dir, "BENCH_7b.json"))
	sawPlan := false
	for _, r := range f.Results {
		if strings.Contains(r.Name, "/tables/") {
			continue
		}
		if len(r.PhaseNs) == 0 {
			t.Errorf("result %s has no phase breakdown", r.Name)
		}
		if strings.Contains(r.Name, "/chase-plan/") {
			sawPlan = true
			if r.Counters["augmented"] <= 0 {
				t.Errorf("result %s: counters = %v, want augmented > 0", r.Name, r.Counters)
			}
			continue
		}
		if r.Counters["tests"] <= 0 {
			t.Errorf("result %s: counters = %v, want tests > 0", r.Name, r.Counters)
		}
	}
	if !sawPlan {
		t.Error("7b emitted no chase-plan results")
	}
}

// TestJSONFigFilter: -json -fig takes the same ids as the table mode,
// pinned or not, and rejects the same unknown ones.
func TestJSONFigFilter(t *testing.T) {
	dir := t.TempDir()
	out, stderr, code := runCmd(t, "-json", "-fig", "7b", "-quick", "-budget", "1ms", "-runs", "1", "-outdir", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "BENCH_7b.json") {
		t.Errorf("stdout does not mention the requested figure:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_service.json")); !os.IsNotExist(err) {
		t.Error("-fig 7b still wrote the service figure")
	}
	if _, stderr, code := runCmd(t, "-json", "-fig", "ablation-cim", "-quick", "-budget", "1ms", "-runs", "1", "-outdir", dir); code != 0 {
		t.Errorf("-json -fig ablation-cim: exit %d, stderr %q", code, stderr)
	}
	if _, err := bench.ReadJSON(filepath.Join(dir, "BENCH_ablation-cim.json")); err != nil {
		t.Error(err)
	}
	for _, id := range []string{"nope", "fig7b"} {
		if _, stderr, code := runCmd(t, "-json", "-fig", id, "-outdir", dir); code != 2 || !strings.Contains(stderr, "unknown experiment") {
			t.Errorf("-json -fig %s: exit %d, stderr %q", id, code, stderr)
		}
	}
}

func TestJSONMerged(t *testing.T) {
	dir := t.TempDir()
	merged := filepath.Join(dir, "BENCH_baseline.json")
	_, stderr, code := runCmd(t, "-json", "-quick", "-budget", "1ms", "-runs", "1", "-o", merged)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	f, err := bench.ReadJSON(merged)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range f.Results {
		names[r.Name] = true
	}
	if !names["fig7b/incremental/red=10"] || !names["service/hot"] {
		t.Fatalf("merged file missing figures: %v", names)
	}
	// Per-figure files are not written in merged mode.
	if _, err := os.Stat(filepath.Join(dir, "BENCH_7b.json")); !os.IsNotExist(err) {
		t.Errorf("merged mode still wrote per-figure files")
	}
}

func TestComparePasses(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	// only-old belongs to a figure the head run does not cover — a
	// targeted gate must not demand it.
	onlyOld := benchjson.Result{Name: "only-old", Figure: "uncovered", NsPerOp: 1}
	writeBenchFile(t, base, res("a", 100), res("b", 200), onlyOld)
	writeBenchFile(t, head, res("a", 120), res("b", 190), res("only-new", 1))
	out, stderr, code := runCmd(t, "-compare", base, head, "-threshold", "1.5x")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "2 result(s) within 1.50x") {
		t.Errorf("output:\n%s", out)
	}
	if strings.Contains(out, "only-old") || strings.Contains(out, "only-new") {
		t.Errorf("non-intersecting results compared:\n%s", out)
	}
}

// TestCompareFailsOnMissingSeries: a baseline series whose figure the
// head run covers but whose name the head file lacks must fail the gate
// — a renamed or dropped series would otherwise pass silently forever.
func TestCompareFailsOnMissingSeries(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBenchFile(t, base, res("a", 100), res("vanished", 50))
	writeBenchFile(t, head, res("a", 100))
	out, stderr, code := runCmd(t, "-compare", base, head, "-threshold", "1.5x")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s\nstderr %q", code, out, stderr)
	}
	if !strings.Contains(out, "vanished") || !strings.Contains(out, "MISSING") {
		t.Errorf("missing series not reported:\n%s", out)
	}
	if !strings.Contains(stderr, "missing from head") {
		t.Errorf("stderr does not explain the failure: %q", stderr)
	}
}

// TestCompareFailsOnRegression is the acceptance check: a synthetic
// 2x-slower input must trip the gate.
func TestCompareFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBenchFile(t, base, res("a", 100), res("b", 200))
	writeBenchFile(t, head, res("a", 200), res("b", 210))
	out, stderr, code := runCmd(t, "-compare", base, head, "-threshold", "1.5x")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(stderr, "1 regression(s)") {
		t.Errorf("stdout:\n%s\nstderr:\n%s", out, stderr)
	}
	// A looser threshold lets the same pair pass — the trailing
	// -threshold placement must survive flag.Parse stopping at
	// positionals.
	if _, _, code := runCmd(t, "-compare", base, head, "-threshold", "2.5x"); code != 0 {
		t.Errorf("2x growth failed a 2.5x threshold: exit %d", code)
	}
	if _, _, code := runCmd(t, "-compare", base, head, "-threshold=2.5x"); code != 0 {
		t.Errorf("-threshold=2.5x form: exit %d", code)
	}
	if _, _, code := runCmd(t, "-threshold", "2.5x", "-compare", base, head); code != 0 {
		t.Errorf("leading -threshold form: exit %d", code)
	}
}

// TestCompareFailsOnPhaseRegression: a flat total with one phase 3x
// slower (masked by another phase getting faster) must still trip the
// gate — that is the whole point of the phase-level breakdown.
func TestCompareFailsOnPhaseRegression(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	oldR := res("a", 1000)
	oldR.PhaseNs = map[string]float64{"chase": 6_000_000, "cim": 4_000_000}
	newR := res("a", 1000)
	newR.PhaseNs = map[string]float64{"chase": 18_000_000, "cim": 1_000_000}
	writeBenchFile(t, base, oldR)
	writeBenchFile(t, head, newR)
	out, stderr, code := runCmd(t, "-compare", base, head, "-threshold", "1.5x")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s\nstderr %q", code, out, stderr)
	}
	if !strings.Contains(out, "phase:chase") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("phase regression not reported:\n%s", out)
	}

	// Sub-floor phases are exempt: a sub-millisecond phase tripling is
	// collector scheduling, not a regression.
	oldR.PhaseNs = map[string]float64{"chase": 200_000}
	newR.PhaseNs = map[string]float64{"chase": 600_000}
	writeBenchFile(t, base, oldR)
	writeBenchFile(t, head, newR)
	if _, stderr, code := runCmd(t, "-compare", base, head, "-threshold", "1.5x"); code != 0 {
		t.Errorf("sub-floor phase tripped the gate: exit %d, stderr %q", code, stderr)
	}
}

func TestCompareUsageErrors(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.json")
	writeBenchFile(t, one, res("a", 100))

	if _, stderr, code := runCmd(t, "-compare", one); code != 2 || !strings.Contains(stderr, "exactly two files") {
		t.Errorf("one file: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := runCmd(t, "-compare", one, one, "-threshold", "zero"); code != 2 || !strings.Contains(stderr, "bad -threshold") {
		t.Errorf("bad threshold: exit %d, stderr %q", code, stderr)
	}
	if _, _, code := runCmd(t, "-compare", one, filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("missing file: exit %d", code)
	}

	// Disjoint result names compare nothing — that is a failure, not a
	// silent pass.
	other := filepath.Join(dir, "other.json")
	writeBenchFile(t, other, res("z", 100))
	if _, stderr, code := runCmd(t, "-compare", one, other); code != 1 || !strings.Contains(stderr, "no result names") {
		t.Errorf("disjoint: exit %d, stderr %q", code, stderr)
	}

	// Wrong schema version is rejected up front.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"tpq-bench/99","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCmd(t, "-compare", one, bad); code != 1 {
		t.Errorf("bad schema: exit %d", code)
	}
}

// TestBaselineRoundTrip: the committed baseline goes through MergeJSON
// and the merged-file writer byte for byte, so `-json -o
// BENCH_baseline.json -merge` only ever adds or replaces results, never
// rewrites the ones it leaves alone. The header is restamped with the
// running toolchain, so it is compared apart from the results.
func TestBaselineRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := bench.ReadJSON("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	merged := bench.MergeJSON("baseline", base)
	merged.GoVersion, merged.GOOS, merged.GOARCH = base.GoVersion, base.GOOS, base.GOARCH
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(data, '\n')) != string(raw) {
		t.Error("BENCH_baseline.json does not survive MergeJSON unchanged")
	}
}
