package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

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

// matchSize is one x-point of the match figure: a nominal label (stable
// in result names) and the article count that generates roughly that
// many nodes (the publishing generator averages ~16 nodes per article).
type matchSize struct {
	label    string
	articles int
}

// matchSizes returns the measured forest scales. Full mode pins the
// paper-style 10k/100k/1M sweep; Quick keeps the smallest so the smoke
// tests stay cheap.
func matchSizes(opts Options) []matchSize {
	all := []matchSize{
		{"10k", 625},
		{"100k", 6_250},
		{"1m", 62_500},
	}
	if opts.Quick {
		return all[:1]
	}
	return all
}

// matchForest builds the deterministic publishing forest for one size
// point and its inverted index (built once, outside every measured op —
// both kernels share it).
func matchForest(sz matchSize) (*data.Forest, *match.ForestIndex) {
	f := data.GeneratePublishing(rand.New(rand.NewSource(7)), sz.articles)
	return f, match.NewForestIndex(f)
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

// FigMatch is the streamed-vs-materialized evaluation figure (the
// Section-6-style curve for the match engine): wall time of one full
// evaluation of the pinned twig query at 10k/100k/1M-node forests, one
// series per kernel. The streamed series visits every answer through
// Query.Answers without materializing the set; the materialized series
// is the AnswersIndexed oracle. Peak-alloc numbers live in the JSON
// variant (JSONMatch) where the compare gate can see them.
func FigMatch(opts Options) *Table {
	q, err := pattern.Parse(matchQueryText)
	if err != nil {
		panic(err)
	}
	tab := &Table{
		Title:   "match: streamed vs materialized evaluation — " + matchQueryText,
		XLabel:  "nodes",
		YLabel:  "evaluation",
		Comment: "both linear in forest size; streamed matches materialized on time at scale and allocates ~7x less",
	}
	ctx := context.Background()
	for _, sz := range matchSizes(opts) {
		forest, idx := matchForest(sz)
		sq, err := stream.Compile(q, idx, stream.Options{})
		if err != nil {
			panic(err)
		}
		x := float64(forest.Size())
		tab.Add("streamed", x, Measure(opts, Timed(func() {
			sq.Count(ctx)
		})))
		tab.Add("materialized", x, Measure(opts, Timed(func() {
			match.AnswersIndexed(q, idx)
		})))
	}
	// The last forest is a million nodes; don't make whichever figure
	// runs next measure the collector reclaiming it.
	runtime.GC()
	return tab
}

// JSONMatch pins the match figure in machine-readable form for the
// regression gate: fig-match/stream/n=SIZE versus
// fig-match/materialized/n=SIZE at each forest scale, every result
// carrying the match-phase duration (so the compare tool gates the
// evaluation phase like any pipeline phase) and two exact counters —
// answers (identical across series by construction; a diff means the
// engines diverged) and alloc_kb, the peak heap growth of one evaluation
// in KiB. The headline acceptance bar lives in that counter pair: at the
// 1M-node point the streamed alloc_kb must stay well under the
// materialized one (≤25%) at equal answer counts.
func JSONMatch(opts Options) benchjson.File {
	q, err := pattern.Parse(matchQueryText)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	var results []benchjson.Result
	for _, sz := range matchSizes(opts) {
		forest, idx := matchForest(sz)
		sq, err := stream.Compile(q, idx, stream.Options{})
		if err != nil {
			panic(err)
		}
		// Generating a million-node forest leaves a heap full of garbage;
		// collect it now so the timed runs measure the kernels, not the
		// collector digging out from under the generator.
		runtime.GC()
		params := func(kernel string) map[string]string {
			return map[string]string{
				"query":    matchQueryText,
				"n":        sz.label,
				"nodes":    strconv.Itoa(forest.Size()),
				"articles": strconv.Itoa(sz.articles),
				"kernel":   kernel,
			}
		}

		var streamed int
		streamOne := func() (*trace.Trace, time.Duration) {
			tr := trace.New()
			sp := tr.Start(trace.Match)
			start := time.Now()
			streamed = sq.Count(ctx)
			d := time.Since(start)
			sp.End()
			return tr, d
		}
		best, _, phases := measureTraced(opts, streamOne)
		streamAlloc := allocBytes(func() { sq.Count(ctx) })
		results = append(results, benchjson.Result{
			Name:    "fig-match/stream/n=" + sz.label,
			Figure:  "match",
			Params:  params("stream"),
			NsPerOp: float64(best.Nanoseconds()),
			PhaseNs: phases,
			Counters: map[string]int64{
				"answers":  int64(streamed),
				"alloc_kb": streamAlloc / 1024,
			},
		})

		var materialized int
		matOne := func() (*trace.Trace, time.Duration) {
			tr := trace.New()
			sp := tr.Start(trace.Match)
			start := time.Now()
			materialized = len(match.AnswersIndexed(q, idx))
			d := time.Since(start)
			sp.End()
			return tr, d
		}
		best, _, phases = measureTraced(opts, matOne)
		matAlloc := allocBytes(func() { match.AnswersIndexed(q, idx) })
		results = append(results, benchjson.Result{
			Name:    "fig-match/materialized/n=" + sz.label,
			Figure:  "match",
			Params:  params("materialized"),
			NsPerOp: float64(best.Nanoseconds()),
			PhaseNs: phases,
			Counters: map[string]int64{
				"answers":  int64(materialized),
				"alloc_kb": matAlloc / 1024,
			},
		})

		if streamed != materialized {
			panic(fmt.Sprintf("bench: match kernels diverged at n=%s: streamed %d answers, materialized %d",
				sz.label, streamed, materialized))
		}
	}
	// The last forest is a million nodes; don't make whichever figure
	// runs next measure the collector reclaiming it.
	runtime.GC()
	return benchjson.New("fig-match", results)
}
