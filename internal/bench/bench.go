// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 6, Figures 7-9) and this reproduction's
// supplementary experiments. Each experiment is declared once, as a
// Figure in Figures: its id, axes, expected shape, full and quick x
// grids, whether the CI perf gate pins it, and the function that
// measures one x. Every point is measured by one best-of-N loop
// (measure) into tpq-bench/1 results, and cmd/tpqbench renders the
// aligned table, the CSV and the JSON from those same results.
//
// Absolute times will not match a 2001 testbed; what must match — and
// what EXPERIMENTS.md records — is the shape of each curve: which
// algorithm wins, what grows linearly versus quadratically, and what
// stays flat. Where a shape is a statement about work rather than time,
// the results carry exact counters and the package tests assert it on
// them, so host noise cannot move the verdict.
package bench

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tpq/internal/benchjson"
	"tpq/internal/trace"
)

// Options tune how carefully each point is measured.
type Options struct {
	// MinRuns is the minimum number of runs per point (default 3).
	MinRuns int
	// Budget is the minimum total time to spend per point (default 10ms);
	// more runs are added until it is exhausted.
	Budget time.Duration
	// Quick selects each figure's quick grid — a sparse smoke-test sweep
	// whose points are a subset of the full grid's.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.MinRuns <= 0 {
		o.MinRuns = 3
	}
	if o.Budget <= 0 {
		o.Budget = 10 * time.Millisecond
	}
	return o
}

// Figure is one experiment, declared once.
type Figure struct {
	// ID selects the figure in every tpqbench mode and names its
	// BENCH_<ID>.json file.
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Shape is the expected shape, printed under the title.
	Shape string
	// Full and Quick are the x grids of a full and a -quick run.
	Full, Quick []int
	// Pinned figures are what `tpqbench -json` runs by default and what
	// BENCH_baseline.json gates.
	Pinned bool
	// Run measures one x of the grid and returns one result per series.
	Run func(opts Options, x int) []benchjson.Result
}

// Results measures every x of the figure's grid, in order. A result
// that names no figure is tagged with the figure's id.
func (f Figure) Results(opts Options) []benchjson.Result {
	grid := f.Full
	if opts.Quick {
		grid = f.Quick
	}
	var out []benchjson.Result
	for _, x := range grid {
		for _, r := range f.Run(opts, x) {
			if r.Figure == "" {
				r.Figure = f.ID
			}
			out = append(out, r)
		}
	}
	return out
}

// Render is the aligned table of a figure's results: one row per x, one
// column per series (in first-appearance order), NsPerOp in
// microseconds.
func (f Figure) Render(results []benchjson.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	if f.Shape != "" {
		fmt.Fprintf(&b, "# shape: %s\n", f.Shape)
	}
	var series []string
	var xs []float64
	cell := map[string]map[float64]float64{}
	for _, r := range results {
		if cell[r.Series] == nil {
			cell[r.Series] = map[float64]float64{}
			series = append(series, r.Series)
		}
		if !slices.Contains(xs, r.X) {
			xs = append(xs, r.X)
		}
		cell[r.Series][r.X] = r.NsPerOp
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s)
	}
	fmt.Fprintf(&b, "   (%s, µs)\n", f.YLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12s", formatX(x))
		for _, s := range series {
			if ns, ok := cell[s][x]; ok {
				fmt.Fprintf(&b, " %14.1f", ns/1e3)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders results as series,x,micros lines under a header, in
// measurement order.
func CSV(results []benchjson.Result) string {
	var b strings.Builder
	b.WriteString("series,x,micros\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%s,%.3f\n", r.Series, formatX(r.X), r.NsPerOp/1e3)
	}
	return b.String()
}

// formatX prints an x value in plain decimal, however large.
func formatX(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }

// measured is what measure reports about one operation.
type measured struct {
	best   time.Duration
	tr     *trace.Trace // the fastest run's trace; nil when the op keeps none
	phases map[string]float64
	allocs float64
}

// measure runs op at least opts.MinRuns times and until opts.Budget of
// measured time is spent, and reports the minimum duration — the
// standard estimator for a noisy single-threaded computation — with the
// fastest run's trace (for its deterministic counters), the minimum
// each phase reached in any run, and the mean heap allocations per run.
// One run's phase split is noisy — a GC pause inflates whichever phase
// it lands in — while the per-phase minimum converges like a best-of-N
// total does.
func measure(opts Options, op func() (time.Duration, *trace.Trace)) measured {
	opts = opts.withDefaults()
	m := measured{best: -1}
	phases := map[string]float64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := 0
	for spent := time.Duration(0); runs < opts.MinRuns || spent < opts.Budget; {
		d, tr := op()
		runs++
		spent += d
		if m.best < 0 || d < m.best {
			m.best, m.tr = d, tr
		}
		for _, p := range trace.Phases() {
			if pd := tr.Dur(p); pd > 0 {
				ns := float64(pd.Nanoseconds())
				if cur, ok := phases[p.String()]; !ok || ns < cur {
					phases[p.String()] = ns
				}
			}
		}
		if runs > 10000 {
			break
		}
	}
	runtime.ReadMemStats(&after)
	m.allocs = float64(after.Mallocs-before.Mallocs) / float64(runs)
	if len(phases) > 0 {
		m.phases = phases
	}
	return m
}

// untraced adapts a plain function to measure.
func untraced(f func()) func() (time.Duration, *trace.Trace) {
	return func() (time.Duration, *trace.Trace) {
		start := time.Now()
		f()
		return time.Since(start), nil
	}
}

// traced adapts a function that records into a fresh trace to measure.
func traced(f func(tr *trace.Trace)) func() (time.Duration, *trace.Trace) {
	return func() (time.Duration, *trace.Trace) {
		tr := trace.New()
		start := time.Now()
		f(tr)
		return time.Since(start), tr
	}
}

// result is the tpq-bench/1 result of one measured series point.
func (m measured) result(name, series string, x float64, params map[string]string, counters map[string]int64) benchjson.Result {
	return benchjson.Result{
		Name:        name,
		Series:      series,
		X:           x,
		Params:      params,
		NsPerOp:     float64(m.best.Nanoseconds()),
		AllocsPerOp: m.allocs,
		PhaseNs:     m.phases,
		Counters:    counters,
	}
}

// counts reads the named counters of a trace.
func counts(tr *trace.Trace, cs ...trace.Counter) map[string]int64 {
	out := make(map[string]int64, len(cs))
	for _, c := range cs {
		out[c.String()] = tr.Count(c)
	}
	return out
}
