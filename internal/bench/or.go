package bench

import (
	"context"
	"fmt"
	"strconv"

	"tpq/internal/benchjson"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/service"
)

// Disjunctive minimization figure: time to minimize an or(...) union as
// the disjunct count k grows. Each disjunct runs the full CDM+ACIM
// pipeline; the absorption pass adds O(k^2) containment tests over the
// minimized disjuncts, but the pinned disjuncts carry pairwise-disjoint
// type alphabets — the realistic union shape, one disjunct per entity
// type — so every cross-disjunct test fails at the root mapping and the
// per-disjunct pipeline dominates: with one worker the curve is ~linear
// in k.

// orWorkload builds the pinned k-disjunct union as the first k of one
// fixed pool — so the k=8 point is the k=4 point plus four more
// disjuncts, and the series measures added disjuncts, not a different
// workload per point. Every pool entry is the same genuinely redundant
// 101-node query (30 redundant nodes, degree 2: real CDM+ACIM work per
// disjunct) with its types prefixed per disjunct, giving the disjuncts
// pairwise-disjoint alphabets. The constraint set is empty: the
// constrained pipeline is pinned by the Figure 7-9 panels, this figure
// pins the disjunctive assembly around it.
func orWorkload(k int) (*pattern.Disjunction, *ics.Set) {
	pool := make([]*pattern.Pattern, 8)
	for i := range pool {
		q := genquery.Redundant(101, 30, 2)
		prefix := pattern.Type(fmt.Sprintf("d%d_", i))
		q.Walk(func(n *pattern.Node) {
			n.Type = prefix + n.Type
			for j, t := range n.Extra {
				n.Extra[j] = prefix + t
			}
		})
		pool[i] = q
	}
	d := pattern.NewDisjunction(pool[:k]...)
	if len(d.Disjuncts) != k {
		panic(fmt.Sprintf("bench: or workload disjuncts collided at k=%d", k))
	}
	return d, ics.NewSet()
}

// orFigure is the disjunctive series: wall time of one
// service.MinimizeDisjunction call on the pinned k-disjunct union, one
// worker so the series stays ~linear in k. Every result carries exact
// counters — disjuncts_out, absorbed and unsat are deterministic for the
// pinned workload, so a diff there means the absorption or
// satisfiability semantics moved, not the clock.
var orFigure = Figure{
	ID:     "or",
	Title:  "or: disjunctive minimization time vs disjunct count (101-node redundant disjuncts, disjoint alphabets)",
	XLabel: "Disjuncts",
	YLabel: "minimize time",
	Shape:  "~linear in k: per-disjunct pipeline dominates the O(k^2) absorption pass",
	Full:   []int{1, 2, 4, 8},
	Quick:  []int{1, 4},
	Pinned: true,
	Run: func(opts Options, x int) []benchjson.Result {
		d, cs := orWorkload(x)
		// Caching off: every repetition measures minimization, not an
		// or-cache hit.
		svc := service.New(service.Options{Constraints: cs, Workers: 1, CacheSize: -1})
		ctx := context.Background()
		var out *pattern.Disjunction
		var rep service.OrReport
		r := measure(opts, untraced(func() {
			var err error
			if out, rep, err = svc.MinimizeDisjunction(ctx, d); err != nil {
				panic(err)
			}
		}))
		return []benchjson.Result{r.result(fmt.Sprintf("fig-or/minimize/k=%d", x), "minimize", float64(x),
			map[string]string{"k": strconv.Itoa(x), "size": "101", "red": "30", "workers": "1"},
			map[string]int64{
				"disjuncts_out": int64(len(out.Disjuncts)),
				"absorbed":      int64(rep.Absorbed),
				"unsat":         int64(rep.Unsat),
			})}
	},
}
