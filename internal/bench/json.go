package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tpq/internal/acim"
	"tpq/internal/benchjson"
	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/service"
	"tpq/internal/store"
	"tpq/internal/trace"
)

// measureTraced measures f like Measure, but lets f report the trace of
// each run. It keeps the trace of the fastest run (for the deterministic
// counters) and, separately, the minimum duration each phase reached in
// any run: one run's phase split is noisy — a GC pause inflates whichever
// phase it lands in — while the per-phase minimum converges like a
// best-of-N total does.
func measureTraced(opts Options, f func() (*trace.Trace, time.Duration)) (time.Duration, *trace.Trace, map[string]float64) {
	opts = opts.withDefaults()
	best := time.Duration(-1)
	var bestTr *trace.Trace
	phaseMin := map[string]float64{}
	spent := time.Duration(0)
	for run := 0; run < opts.MinRuns || spent < opts.Budget; run++ {
		tr, d := f()
		spent += d
		if best < 0 || d < best {
			best, bestTr = d, tr
		}
		if tr != nil {
			for _, p := range trace.Phases() {
				if pd := tr.Dur(p); pd > 0 {
					ns := float64(pd.Nanoseconds())
					if cur, ok := phaseMin[p.String()]; !ok || ns < cur {
						phaseMin[p.String()] = ns
					}
				}
			}
		}
		if run > 10000 {
			break
		}
	}
	if len(phaseMin) == 0 {
		phaseMin = nil
	}
	return best, bestTr, phaseMin
}

// JSONFig7b pins the Figure 7(b) incremental-engine workload (101-node
// fan, 100 constraints): the incremental images-table kernel at three
// redundancy levels, each with the per-phase breakdown from the trace
// spans, plus plan-based augmentation alone at the same levels.
func JSONFig7b(opts Options) benchjson.File {
	q := genquery.Fan(101)
	base := genquery.RelevantConstraints(q, 100)
	reds := []int{10, 50, 90}
	if opts.Quick {
		reds = []int{10, 90}
	}
	var results []benchjson.Result
	run := func(red int) benchjson.Result {
		cs := base.Clone()
		for _, c := range genquery.FanRedundancy(red).Constraints() {
			cs.Add(c)
		}
		closed := cs.Closure()
		one := func() (*trace.Trace, time.Duration) {
			tr := trace.New()
			start := time.Now()
			_, _ = acim.MinimizeWithRunnerTraced(q, closed, tr, func(aug *pattern.Pattern) cim.Stats {
				return cim.MinimizeInPlace(aug, cim.Options{Trace: tr})
			})
			return tr, time.Since(start)
		}
		best, tr, phases := measureTraced(opts, one)
		allocs := testing.AllocsPerRun(2, func() { one() })
		return benchjson.Result{
			Name:        "fig7b/incremental/red=" + strconv.Itoa(red),
			Figure:      "7b-incremental",
			Params:      map[string]string{"nodes": "101", "constraints": "100", "red": strconv.Itoa(red), "kernel": "incremental"},
			NsPerOp:     float64(best.Nanoseconds()),
			AllocsPerOp: allocs,
			PhaseNs:     phases,
			Counters: map[string]int64{
				"tests":          tr.Count(trace.Tests),
				"tables_built":   tr.Count(trace.TablesBuilt),
				"tables_derived": tr.Count(trace.TablesDerived),
			},
		}
	}
	for _, red := range reds {
		results = append(results, run(red))
	}
	for _, red := range reds {
		results = append(results, runPlanAugment(opts, q, base, red))
	}
	return benchjson.New("fig7b", results)
}

// runPlanAugment pins the chase phase in isolation: one op is clone +
// plan-based augmentation on the Figure 7(b) workload (the plan itself is
// compiled once, outside the measured op — that is the point of the
// registry). The augmented-node count is deterministic, so the compare
// tool checks it exactly; a change there means the chase semantics moved,
// not the clock.
func runPlanAugment(opts Options, q *pattern.Pattern, base *ics.Set, red int) benchjson.Result {
	cs := base.Clone()
	for _, c := range genquery.FanRedundancy(red).Constraints() {
		cs.Add(c)
	}
	pl := chase.PlanFor(cs.Closure())
	one := func() (*trace.Trace, time.Duration) {
		tr := trace.New()
		start := time.Now()
		pl.AugmentTraced(q.Clone(), tr)
		return tr, time.Since(start)
	}
	best, tr, phases := measureTraced(opts, one)
	allocs := testing.AllocsPerRun(2, func() { one() })
	return benchjson.Result{
		Name:        "fig7b/chase-plan/red=" + strconv.Itoa(red),
		Figure:      "7b-incremental",
		Params:      map[string]string{"nodes": "101", "constraints": "100", "red": strconv.Itoa(red), "kernel": "chase-plan"},
		NsPerOp:     float64(best.Nanoseconds()),
		AllocsPerOp: allocs,
		PhaseNs:     phases,
		Counters:    map[string]int64{"augmented": tr.Count(trace.Augmented)},
	}
}

// JSONService pins the serving layer: the steady-state latency of a hot
// cached query and of the uncached pipeline on the same query (the
// headline speedup of the cache), plus a cold batch over the standard
// mix. Hot-path phase breakdowns are empty by construction — a cache hit
// runs no pipeline phases.
func JSONService(opts Options) benchjson.File {
	distinct, rawCS := BatchWorkload(8)
	q := distinct[0]
	ctx := context.Background()
	var results []benchjson.Result

	svc := service.New(service.Options{Constraints: rawCS})
	if _, _, err := svc.Minimize(ctx, q); err != nil {
		panic(err)
	}
	hot := Measure(opts, Timed(func() {
		if _, _, err := svc.Minimize(ctx, q); err != nil {
			panic(err)
		}
	}))
	hotAllocs := testing.AllocsPerRun(2, func() { svc.Minimize(ctx, q) })
	results = append(results, benchjson.Result{
		Name:        "service/hot",
		Figure:      "service",
		Params:      map[string]string{"distinct": "8", "path": "cache-hit"},
		NsPerOp:     float64(hot.Nanoseconds()),
		AllocsPerOp: hotAllocs,
	})

	eng := service.New(service.Options{Constraints: rawCS, CacheSize: -1})
	uncachedOne := func() (*trace.Trace, time.Duration) {
		start := time.Now()
		if _, _, err := eng.Minimize(ctx, q); err != nil {
			panic(err)
		}
		return nil, time.Since(start)
	}
	uncached, _, _ := measureTraced(opts, uncachedOne)
	uncachedAllocs := testing.AllocsPerRun(2, func() { uncachedOne() })
	results = append(results, benchjson.Result{
		Name:        "service/uncached",
		Figure:      "service",
		Params:      map[string]string{"distinct": "8", "path": "pipeline"},
		NsPerOp:     float64(uncached.Nanoseconds()),
		AllocsPerOp: uncachedAllocs,
	})

	cold := Measure(opts, Timed(func() {
		fresh := service.New(service.Options{Constraints: rawCS})
		if _, _, err := fresh.MinimizeBatch(ctx, distinct); err != nil {
			panic(err)
		}
	}))
	results = append(results, benchjson.Result{
		Name:    "service/cold-batch",
		Figure:  "service",
		Params:  map[string]string{"distinct": "8", "path": "cold-batch"},
		NsPerOp: float64(cold.Nanoseconds()),
	})
	return benchjson.New("service", results)
}

// JSONServiceWarmRestart pins the restart story of the persistent tier:
// the time for a freshly constructed service to serve its whole working
// set again — cold (no store: every distinct query pays the pipeline)
// versus warm (reopening a populated store with warm-start: every
// request is already a cache hit). The warm measurement starts at
// store.Open, so it covers the real restart path — snapshot load, log
// replay, warm-start preload — and must still win, because the pipeline
// it avoids costs more than the store it reads.
func JSONServiceWarmRestart(opts Options) benchjson.File {
	distinct, rawCS := BatchWorkload(8)
	ctx := context.Background()

	// Seed the store with a clean shutdown's worth of state: every
	// distinct query minimized, the write-behind queue drained, the log
	// folded into the snapshot.
	dir, err := os.MkdirTemp("", "tpqbench-store-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		panic(err)
	}
	seed := service.New(service.Options{Constraints: rawCS, Store: st})
	if _, _, err := seed.MinimizeBatch(ctx, distinct); err != nil {
		panic(err)
	}
	if err := seed.Close(ctx); err != nil {
		panic(err)
	}
	if err := st.Compact(); err != nil {
		panic(err)
	}
	if err := st.Close(); err != nil {
		panic(err)
	}

	coldOne := func() (*trace.Trace, time.Duration) {
		start := time.Now()
		fresh := service.New(service.Options{Constraints: rawCS})
		for _, q := range distinct {
			if _, _, err := fresh.Minimize(ctx, q); err != nil {
				panic(err)
			}
		}
		return nil, time.Since(start)
	}
	cold, _, _ := measureTraced(opts, coldOne)

	var warmStarted int64
	warmOne := func() (*trace.Trace, time.Duration) {
		start := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			panic(err)
		}
		fresh := service.New(service.Options{Constraints: rawCS, Store: st, WarmStart: -1})
		for _, q := range distinct {
			_, rep, err := fresh.Minimize(ctx, q)
			if err != nil {
				panic(err)
			}
			if !rep.CacheHit {
				panic("bench: warm restart missed the cache")
			}
		}
		d := time.Since(start)
		warmStarted = fresh.Stats().WarmStarted
		if err := fresh.Close(ctx); err != nil {
			panic(err)
		}
		if err := st.Close(); err != nil {
			panic(err)
		}
		return nil, d
	}
	warm, _, _ := measureTraced(opts, warmOne)

	return benchjson.New("service-warm-restart", []benchjson.Result{
		{
			Name:    "service-warm-restart/cold",
			Figure:  "service-warm-restart",
			Params:  map[string]string{"queries": "8", "path": "cold-start"},
			NsPerOp: float64(cold.Nanoseconds()),
		},
		{
			Name:     "service-warm-restart/warm",
			Figure:   "service-warm-restart",
			Params:   map[string]string{"queries": "8", "path": "warm-start"},
			NsPerOp:  float64(warm.Nanoseconds()),
			Counters: map[string]int64{"warm_started": warmStarted},
		},
	})
}

// JSONFigures maps the pinned machine-readable benchmark ids to their
// runners — the set `tpqbench -json` emits and CI gates on.
func JSONFigures() map[string]func(Options) benchjson.File {
	return map[string]func(Options) benchjson.File{
		"fig7b":                JSONFig7b,
		"service":              JSONService,
		"fig-match":            JSONMatch,
		"service-warm-restart": JSONServiceWarmRestart,
		"service-scale":        JSONServiceScale,
		"fig-or":               JSONOr,
	}
}

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
