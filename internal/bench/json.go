package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tpq/internal/benchjson"
)

// WriteJSON writes one result file ("BENCH_<figure>.json" under dir) and
// returns its path.
func WriteJSON(dir string, f benchjson.File) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+f.Figure+".json")
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	return path, os.WriteFile(path, data, 0o644)
}

// ReadJSON loads and schema-checks one result file.
func ReadJSON(path string) (benchjson.File, error) {
	var f benchjson.File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchjson.Schema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchjson.Schema)
	}
	return f, nil
}

// MergeJSON unions result sets (later files win on duplicate names) into
// one file tagged with the given figure id — how BENCH_baseline.json is
// produced from the per-figure runs.
func MergeJSON(figure string, files ...benchjson.File) benchjson.File {
	byName := map[string]benchjson.Result{}
	var order []string
	for _, f := range files {
		for _, r := range f.Results {
			if _, seen := byName[r.Name]; !seen {
				order = append(order, r.Name)
			}
			byName[r.Name] = r
		}
	}
	results := make([]benchjson.Result, 0, len(order))
	for _, name := range order {
		results = append(results, byName[name])
	}
	return benchjson.New(figure, results)
}

// Comparison is the verdict on one result name present in both files —
// or present in the baseline but missing from a head run that covers its
// figure, which is itself a gate failure (see CompareJSON).
type Comparison struct {
	Name   string
	OldNs  float64
	NewNs  float64
	Ratio  float64 // NewNs / OldNs
	Slower bool    // Ratio > threshold
	// Missing is set when the baseline has this result, the head run
	// covers its figure, and the head file does not carry it: the series
	// silently disappeared (a renamed result, a dropped sweep point), so
	// nothing would ever gate it again. Counted as a regression.
	Missing bool
	// CounterDiffs lists counters whose exact values changed — an
	// algorithmic change (more redundancy tests, a lost table reuse),
	// flagged as informational, never as a regression by itself.
	CounterDiffs []string
	// PhaseDiffs compares the per-phase breakdowns, so a phase that
	// regresses inside an otherwise-flat total (one phase got slower,
	// another absorbed it) still fails the gate.
	PhaseDiffs []PhaseDiff
}

// PhaseDiff is the verdict on one pipeline phase of one result.
type PhaseDiff struct {
	Phase  string
	OldNs  float64
	NewNs  float64
	Ratio  float64 // NewNs / OldNs
	Slower bool    // Ratio > threshold and OldNs >= phaseFloorNs
}

// phaseFloorNs exempts sub-millisecond phases from the phase gate: a
// phase that small inside a GC-heavy pipeline measures mostly collector
// scheduling (its per-phase minimum still swings 2-3x between runs of
// the same binary). Small-but-critical phases are pinned by dedicated
// series instead — fig7b/chase-plan isolates augmentation, and its
// stable total falls under the ordinary result gate.
const phaseFloorNs = 1_000_000

// CompareJSON matches results by name over the intersection of the two
// files and flags every result whose time grew by more than threshold
// (1.5 means "50% slower fails"). The same threshold applies per phase
// (over phaseFloorNs), so a regression in one phase cannot hide behind a
// speedup in another. Timing on shared CI runners is noisy — single
// measurements, neighbors on the box, frequency scaling — which is why
// the threshold is generous and why counters are compared exactly but
// reported separately: they are deterministic, times are not.
//
// A baseline result missing from the head is a hard failure when the
// head run covers that result's figure (some head result carries the
// same Figure tag): a series that silently disappears — renamed, or its
// sweep point dropped — would otherwise pass the gate forever. Targeted
// gates still work: comparing the full baseline against a single-figure
// head file only requires the baseline series of that figure.
func CompareJSON(base, head benchjson.File, threshold float64) (comps []Comparison, regressions int) {
	headFigs := map[string]bool{}
	headBy := map[string]bool{}
	for _, r := range head.Results {
		headFigs[r.Figure] = true
		headBy[r.Name] = true
	}
	for _, r := range base.Results {
		if !headBy[r.Name] && headFigs[r.Figure] {
			comps = append(comps, Comparison{Name: r.Name, OldNs: r.NsPerOp, Missing: true})
			regressions++
		}
	}
	oldBy := map[string]benchjson.Result{}
	for _, r := range base.Results {
		oldBy[r.Name] = r
	}
	for _, r := range head.Results {
		o, ok := oldBy[r.Name]
		if !ok {
			continue
		}
		c := Comparison{Name: r.Name, OldNs: o.NsPerOp, NewNs: r.NsPerOp}
		if o.NsPerOp > 0 {
			c.Ratio = r.NsPerOp / o.NsPerOp
		}
		c.Slower = c.Ratio > threshold
		var keys []string
		for k := range o.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if nv, ok := r.Counters[k]; ok && nv != o.Counters[k] {
				c.CounterDiffs = append(c.CounterDiffs,
					fmt.Sprintf("%s %d -> %d", k, o.Counters[k], nv))
			}
		}
		var phases []string
		for p := range o.PhaseNs {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		for _, p := range phases {
			nv, ok := r.PhaseNs[p]
			if !ok {
				continue // phase vanished: strictly faster, never a regression
			}
			d := PhaseDiff{Phase: p, OldNs: o.PhaseNs[p], NewNs: nv}
			if d.OldNs > 0 {
				d.Ratio = d.NewNs / d.OldNs
			}
			d.Slower = d.Ratio > threshold && d.OldNs >= phaseFloorNs
			c.PhaseDiffs = append(c.PhaseDiffs, d)
		}
		if c.Slower {
			regressions++
		}
		for _, d := range c.PhaseDiffs {
			if d.Slower {
				regressions++
			}
		}
		comps = append(comps, c)
	}
	return comps, regressions
}

// FormatComparisons renders the compare verdict as an aligned table.
func FormatComparisons(comps []Comparison, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, c := range comps {
		if c.Missing {
			fmt.Fprintf(&b, "%-28s %14.0f %14s   MISSING: baseline series absent from head run\n",
				c.Name, c.OldNs, "-")
			continue
		}
		verdict := ""
		if c.Slower {
			verdict = fmt.Sprintf("  REGRESSION (> %.2fx)", threshold)
		}
		fmt.Fprintf(&b, "%-28s %14.0f %14.0f %7.2fx%s\n", c.Name, c.OldNs, c.NewNs, c.Ratio, verdict)
		for _, d := range c.PhaseDiffs {
			pv := ""
			if d.Slower {
				pv = fmt.Sprintf("  REGRESSION (> %.2fx)", threshold)
			}
			fmt.Fprintf(&b, "  %-26s %14.0f %14.0f %7.2fx%s\n", "phase:"+d.Phase, d.OldNs, d.NewNs, d.Ratio, pv)
		}
		for _, d := range c.CounterDiffs {
			fmt.Fprintf(&b, "    counter changed: %s\n", d)
		}
	}
	return b.String()
}
