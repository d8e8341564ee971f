package bench

import (
	"context"
	"fmt"
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
// a twig with one c-edge filter and a //-descendant output, the shape
// where streaming pays off most — the materialized kernel builds the
// full answer slice plus per-node candidate lists, while the streamed
// engine walks the output candidates once with O(memo) extra state.
const matchQueryText = "Article[/Title]//Paragraph*"

// matchForest builds the deterministic publishing forest of about x
// nodes (the generator averages ~16 nodes per article) and its inverted
// index, built once, outside every measured op — both kernels share it.
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

// matchFigure is the streamed-vs-materialized evaluation figure (the
// Section-6-style curve for the match engine): wall time of one full
// evaluation of the pinned twig query on a forest of about x nodes, one
// series per kernel. The stream series visits every answer through
// Query.Count without materializing the set; the materialized series is
// AnswersIndexed. Every result carries the match-phase duration (so the
// compare tool gates the evaluation phase like any pipeline phase) and
// two exact counters — answers (identical across series by
// construction; a diff means the engines diverged) and alloc_kb, the
// peak heap growth of one evaluation in KiB. The memory claim lives in
// that counter pair: at the 1M-node point the streamed alloc_kb must
// stay well under the materialized one (≤25%) at equal answer counts.
var matchFigure = Figure{
	ID:     "match",
	Title:  "match: streamed vs materialized evaluation — " + matchQueryText,
	XLabel: "nodes",
	YLabel: "evaluation",
	Shape:  "both linear in forest size; streamed allocates several times less than materialized",
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
		// collect it now so the timed runs measure the kernels, not the
		// collector digging out from under the generator. The last forest
		// is collected on the way out for the same reason.
		runtime.GC()
		defer runtime.GC()
		var out []benchjson.Result
		var answers []int
		for _, s := range []struct {
			series string
			eval   func() int
		}{
			{"stream", func() int { return sq.Count(ctx) }},
			{"materialized", func() int { return len(match.AnswersIndexed(q, idx)) }},
		} {
			var n int
			m := measure(opts, traced(func(tr *trace.Trace) {
				sp := tr.Start(trace.Match)
				n = s.eval()
				sp.End()
			}))
			answers = append(answers, n)
			alloc := allocBytes(func() { s.eval() })
			out = append(out, m.result("fig-match/"+s.series+"/n="+sizeLabel(x), s.series, float64(forest.Size()),
				map[string]string{
					"query":    matchQueryText,
					"n":        sizeLabel(x),
					"nodes":    strconv.Itoa(forest.Size()),
					"articles": strconv.Itoa(x / 16),
					"kernel":   s.series,
				},
				map[string]int64{"answers": int64(n), "alloc_kb": alloc / 1024}))
		}
		if answers[0] != answers[1] {
			panic(fmt.Sprintf("bench: match kernels diverged at n=%s: streamed %d answers, materialized %d",
				sizeLabel(x), answers[0], answers[1]))
		}
		return out
	},
}
