package bench

import (
	"context"
	"strconv"
	"time"

	"tpq/internal/benchjson"
	"tpq/internal/engine"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Disjunctive minimization figure: time to minimize an or(...) union as
// the disjunct count k grows. Each disjunct runs the full CDM+ACIM
// pipeline; the absorption pass adds O(k^2) containment tests over the
// minimized disjuncts, but the pinned disjuncts carry pairwise-disjoint
// type alphabets — the realistic union shape, one disjunct per entity
// type — so every cross-disjunct test fails at the root mapping and the
// per-disjunct pipeline dominates: with one worker the curve is ~linear
// in k.

// orKs returns the measured disjunct counts. Quick keeps the endpoints
// so smoke runs stay cheap but the shape is still visible.
func orKs(opts Options) []int {
	if opts.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// orWorkload builds the pinned k-disjunct union as the first k of one
// fixed pool — so the k=8 point is the k=4 point plus four more
// disjuncts, and the series measures added disjuncts, not a different
// workload per point. Every pool entry is the same genuinely redundant
// 101-node query (30 redundant nodes, degree 2: real CDM+ACIM work per
// disjunct) with its types prefixed per disjunct, giving the disjuncts
// pairwise-disjoint alphabets. The constraint set is empty: the
// constrained pipeline is pinned by fig7b, this figure pins the
// disjunctive assembly around it.
func orWorkload(k int) (*pattern.Disjunction, *ics.Set) {
	pool := make([]*pattern.Pattern, 8)
	for i := range pool {
		q := genquery.Redundant(101, 30, 2)
		prefix := pattern.Type("d" + itoa(i) + "_")
		q.Walk(func(n *pattern.Node) {
			n.Type = prefix + n.Type
			for j, t := range n.Extra {
				n.Extra[j] = prefix + t
			}
		})
		pool[i] = q
	}
	cs := ics.NewSet()
	d := pattern.NewDisjunction(pool[:k]...)
	if len(d.Disjuncts) != k {
		panic("bench: or workload disjuncts collided at k=" + itoa(k))
	}
	return d, cs
}

// FigOr is the human-readable disjunctive series: wall time of one
// MinimizeDisjunction call on the pinned k-disjunct union, one worker,
// as k sweeps 1..8.
func FigOr(opts Options) *Table {
	t := &Table{
		Title:   "or: disjunctive minimization time vs disjunct count (101-node redundant disjuncts, disjoint alphabets)",
		XLabel:  "Disjuncts",
		YLabel:  "minimize time",
		Comment: "~linear in k: per-disjunct pipeline dominates the O(k^2) absorption pass",
	}
	ctx := context.Background()
	for _, k := range orKs(opts) {
		d, cs := orWorkload(k)
		m := engine.New(engine.Options{Workers: 1, Algo: engine.Auto, Constraints: cs})
		t.Add("MinimizeUnion", float64(k), Measure(opts, Timed(func() {
			if _, err := m.MinimizeDisjunction(ctx, d); err != nil {
				panic(err)
			}
		})))
	}
	return t
}

// JSONOr pins the disjunctive series in machine-readable form for the
// regression gate: fig-or/minimize/k=K at each disjunct count, one
// worker so the series stays ~linear in k. Every result carries exact
// counters — disjuncts_out, absorbed and unsat are deterministic for
// the pinned workload, so a diff there means the absorption or
// satisfiability semantics moved, not the clock.
func JSONOr(opts Options) benchjson.File {
	ctx := context.Background()
	var results []benchjson.Result
	for _, k := range orKs(opts) {
		d, cs := orWorkload(k)
		m := engine.New(engine.Options{Workers: 1, Algo: engine.Auto, Constraints: cs})
		var res engine.DisjunctionResult
		one := func() (d2 time.Duration) {
			start := time.Now()
			r, err := m.MinimizeDisjunction(ctx, d)
			if err != nil {
				panic(err)
			}
			res = r
			return time.Since(start)
		}
		best := Measure(opts, one)
		results = append(results, benchjson.Result{
			Name:    "fig-or/minimize/k=" + strconv.Itoa(k),
			Figure:  "or",
			Params:  map[string]string{"k": strconv.Itoa(k), "size": "101", "red": "30", "workers": "1"},
			NsPerOp: float64(best.Nanoseconds()),
			Counters: map[string]int64{
				"disjuncts_out": int64(len(res.Output.Disjuncts)),
				"absorbed":      int64(res.Absorbed),
				"unsat":         int64(res.Unsat),
			},
		})
	}
	return benchjson.New("fig-or", results)
}
