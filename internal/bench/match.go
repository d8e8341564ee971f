package bench

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"

	"tpq/internal/benchjson"
	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// matchQueryText is the pinned evaluation workload for the match figure:
// a twig with one c-edge filter and a //-descendant output — one
// bottom-up lift and one top-down descendant step over the forest's rows.
const matchQueryText = "Article[/Title]//Paragraph*"

// matchForest builds the deterministic publishing forest of about x
// nodes (the generator averages ~16 nodes per article) and its inverted
// index, built once, outside every measured op.
func matchForest(x int) (*data.Forest, *match.ForestIndex) {
	f := data.GeneratePublishing(rand.New(rand.NewSource(7)), x/16)
	return f, match.NewForestIndex(f)
}

// sizeLabel is the nominal size in result names: 10k, 100k, 1m.
func sizeLabel(x int) string {
	if x >= 1_000_000 {
		return strconv.Itoa(x/1_000_000) + "m"
	}
	return strconv.Itoa(x/1000) + "k"
}

// allocBytes reports the heap bytes f allocates, measured as the
// TotalAlloc delta around one call with the world quiesced by two GCs on
// each side: the first GC finishes any in-flight cycle, the second runs
// finalizers and empties sync.Pool arenas, so a kernel that leans on
// pooled buffers pays its real steady-state cost instead of reusing a
// warm arena from the previous measurement.
func allocBytes(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// matchFigure is the evaluation figure (the Section-6-style curve for the
// match engine): wall time of one full evaluation of the pinned twig
// query, Query.Count on the twig engine, on a forest of about x nodes.
// Every result carries the match-phase duration (so the compare tool
// gates the evaluation phase like any pipeline phase) and two exact
// counters: answers, which pins the answer set's size, and alloc_kb, the
// heap growth of one evaluation from an empty row pool in KiB — the
// engine's row bound, ⌊log₂ k⌋ + 4 rows of ⌈n/64⌉ words, caps it.
var matchFigure = Figure{
	ID:     "match",
	Title:  "match: twig evaluation on bitset rows — " + matchQueryText,
	XLabel: "nodes",
	YLabel: "evaluation",
	Shape:  "linear in forest size; allocation a few rows of one bit per node",
	Full:   []int{10_000, 100_000, 1_000_000},
	Quick:  []int{10_000},
	Pinned: true,
	Run: func(opts Options, x int) []benchjson.Result {
		q := pattern.MustParse(matchQueryText)
		ctx := context.Background()
		forest, idx := matchForest(x)
		sq, err := stream.Compile(q, idx, stream.Options{})
		if err != nil {
			panic(err)
		}
		// Generating a million-node forest leaves a heap full of garbage;
		// collect it now so the timed runs measure the engine, not the
		// collector digging out from under the generator. The last forest
		// is collected on the way out for the same reason.
		runtime.GC()
		defer runtime.GC()
		var n int
		m := measure(opts, traced(func(tr *trace.Trace) {
			sp := tr.Start(trace.Match)
			n = sq.Count(ctx)
			sp.End()
		}))
		alloc := allocBytes(func() { sq.Count(ctx) })
		return []benchjson.Result{m.result("fig-match/stream/n="+sizeLabel(x), "stream", float64(forest.Size()),
			map[string]string{
				"query":    matchQueryText,
				"n":        sizeLabel(x),
				"nodes":    strconv.Itoa(forest.Size()),
				"articles": strconv.Itoa(x / 16),
				"kernel":   "stream",
			},
			map[string]int64{"answers": int64(n), "alloc_kb": alloc / 1024})}
	},
}
