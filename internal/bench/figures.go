package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"tpq/internal/acim"
	"tpq/internal/benchjson"
	"tpq/internal/cdm"
	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// Figures lists every experiment in presentation order: the six panels
// of the paper's Section 6, then the supplementary experiments.
var Figures = []Figure{
	{
		ID:     "7a",
		Title:  "Figure 7(a): ACIM time, varying redundancy and relevant constraints (101-node fan)",
		XLabel: "RedNodes*Deg",
		YLabel: "ACIM time",
		Shape:  "work (chase witnesses, closed set) ordered by relevant-constraint count at every x, time only within noise; every curve also carries the x required-child constraints that make x leaves redundant, so each rises with x",
		Full:   steps(10, 90, 10),
		Quick:  []int{10, 50, 90},
		Pinned: true,
		Run:    fig7a,
	},
	{
		ID:     "7b",
		Title:  "Figure 7(b): ACIM total time vs table-building time (101 nodes, 100 constraints)",
		XLabel: "RedNodes*Deg",
		YLabel: "time",
		Shape:  "one images table built and 100 derived at every x; the tables' share of the incremental run rises with x (the paper: ≈60%, flat)",
		Full:   steps(10, 90, 10),
		Quick:  []int{10, 50, 90},
		Pinned: true,
		Run:    fig7b,
	},
	{
		ID:     "8a",
		Title:  "Figure 8(a): CDM time vs number of constraints (127-node query)",
		XLabel: "Constraints",
		YLabel: "CDM time",
		Shape:  "flat: CDM makes the same constraint lookups however many constraints the set stores",
		Full:   steps(0, 150, 15),
		Quick:  []int{0, 60, 120},
		Pinned: true,
		Run:    fig8a,
	},
	{
		ID:     "8b",
		Title:  "Figure 8(b): CDM time vs query size and shape",
		XLabel: "QuerySize",
		YLabel: "CDM time",
		Shape:  "RightDeep ≈ Bushy, linear; VaryingFanout grows quadratically",
		Full:   steps(10, 140, 10),
		Quick:  []int{10, 50, 90, 130},
		Pinned: true,
		Run:    fig8b,
	},
	{
		ID:     "9a",
		Title:  "Figure 9(a): ACIM vs CDM, same nodes removed, growing query size",
		XLabel: "QuerySize",
		YLabel: "time",
		Shape:  "CDM ≪ ACIM; the gap grows with query size",
		Full:   steps(10, 100, 10),
		Quick:  []int{10, 50, 90},
		Pinned: true,
		Run:    fig9a,
	},
	{
		ID:     "9b",
		Title:  "Figure 9(b): ACIM alone vs CDM pre-filter + ACIM",
		XLabel: "QuerySize",
		YLabel: "time",
		Shape:  "CDMACIM below ACIM; the gap grows with query size",
		Full:   steps(10, 100, 9),
		Quick:  []int{10, 46, 82},
		Pinned: true,
		Run:    fig9b,
	},
	{
		ID:     "motivation",
		Title:  "Motivation: evaluation time before vs after minimization (publishing corpus)",
		XLabel: "ExtraBranches",
		YLabel: "match time",
		Shape:  "Original grows with redundancy; Minimized stays flat",
		Full:   steps(0, 8, 2),
		Quick:  []int{0, 4, 8},
		Run:    motivation,
	},
	{
		ID:     "ablation-cim",
		Title:  "Ablation: naive CIM vs incremental CIM (Figure 3, enhancement 1)",
		XLabel: "QuerySize",
		YLabel: "time",
		Shape:  "naive grows faster; both return the same minimal query",
		Full:   steps(20, 100, 20),
		Quick:  []int{20, 100},
		Run:    ablationCIM,
	},
	{
		ID:     "ablation-closure",
		Title:  "Ablation: ACIM with pre-closed vs per-call-closed constraints",
		XLabel: "Constraints",
		YLabel: "time",
		Shape:  "pre-closed flat-ish; per-call pays closure each time",
		Full:   steps(20, 120, 20),
		Quick:  []int{20, 100},
		Run:    ablationClosure,
	},
	{
		ID:     "ablation-cdm",
		Title:  "Ablation: CDM information content vs direct rule scanning (Section 5.4)",
		XLabel: "QuerySize",
		YLabel: "time",
		Shape:  "direct is quadratic (subtree walk per deep-witness check); propagated near-linear",
		Full:   steps(101, 801, 100),
		Quick:  []int{101, 501},
		Run:    ablationCDM,
	},
	{
		ID:     "batch",
		Title:  "Batch engine: wall-clock time to minimize a mixed workload vs workers",
		XLabel: "Workers",
		YLabel: "batch time",
		Shape:  "time drops with workers until cores or stragglers bound it",
		Full:   []int{1, 2, 4, 8},
		Quick:  []int{1, 2, 4, 8},
		Run:    batchMinimize,
	},
	serviceFigure,
	serviceWarmRestartFigure,
	serviceScaleFigure,
	matchFigure,
	orFigure,
}

// steps is the grid from, from+step, ..., up to to.
func steps(from, to, step int) []int {
	var out []int
	for x := from; x <= to; x += step {
		out = append(out, x)
	}
	return out
}

// runACIM is one ACIM minimization of q under the closed set cs with the
// production CIM kernel, traced into tr.
func runACIM(q *pattern.Pattern, cs *ics.Set, tr *trace.Trace) acim.Stats {
	_, st := acim.MinimizeWithRunnerTraced(q, cs, tr, func(aug *pattern.Pattern) cim.Stats {
		return cim.MinimizeInPlace(aug, cim.Options{Trace: tr})
	})
	return st
}

// measureACIM measures runACIM on q under cs.
func measureACIM(opts Options, q *pattern.Pattern, cs *ics.Set) measured {
	return measure(opts, traced(func(tr *trace.Trace) { runACIM(q, cs, tr) }))
}

// measureCDM measures CDM on fresh clones of q under the closed set cs
// (the clone stays outside the measured CDM time) and returns the
// measurement with its exact counters: removals and constraint lookups.
func measureCDM(opts Options, q *pattern.Pattern, cs *ics.Set) (measured, map[string]int64) {
	var probes int
	m := measure(opts, func() (time.Duration, *trace.Trace) {
		tr := trace.New()
		st := cdm.MinimizeInPlaceTraced(q.Clone(), cs, tr)
		probes = st.Probes
		return st.TotalTime, tr
	})
	c := counts(m.tr, trace.CDMRemoved)
	c["cdm_probes"] = int64(probes)
	return m, c
}

// fanRedundant is the Figure 7 constraint set: rel plus the x
// required-child constraints that make x leaves of Fan(101) redundant,
// closed.
func fanRedundant(rel *ics.Set, x int) *ics.Set {
	cs := rel.Clone()
	for _, c := range genquery.FanRedundancy(x).Constraints() {
		cs.Add(c)
	}
	return cs.Closure()
}

// fig7aLevels are the paper's relevant-constraint counts.
var fig7aLevels = []int{0, 50, 100, 150}

// fig7a reproduces Figure 7(a): ACIM time on a 101-node query as the
// redundancy total x sweeps from 10 to 90 (x leaves made redundant by x
// required-child constraints), with 0/50/100/150 constraints relevant to
// the query. The relevant load comes from
// genquery.SpreadConstraints, whose constraints never imply each other,
// so the closed set, the augmented query and the work grow with the
// level at every x (RelevantConstraints chains its pairs on a fan: its
// 100 and 150 sets close to the same set). The counters are the closed
// set's size and the chase's augmented-node count.
func fig7a(opts Options, x int) []benchjson.Result {
	q := genquery.Fan(101)
	var out []benchjson.Result
	for _, k := range fig7aLevels {
		closed := fanRedundant(genquery.SpreadConstraints(q, k), x)
		m := measureACIM(opts, q, closed)
		series := strconv.Itoa(k) + "Relevant"
		c := counts(m.tr, trace.Augmented, trace.ACIMRemoved, trace.Tests)
		c["closed"] = int64(closed.Len())
		out = append(out, m.result(fmt.Sprintf("fig7a/%s/red=%d", series, x), series, float64(x),
			map[string]string{"nodes": "101", "relevant": strconv.Itoa(k), "red": strconv.Itoa(x)}, c))
	}
	return out
}

// fig7b reproduces Figure 7(b) on the 101-node fan with 100 constraints:
// the incremental images-table kernel's total time (with its per-phase
// breakdown), the share of it spent building, deriving and patching
// images tables, and plan-based augmentation alone. The paper reports
// tables at ≈60% of ACIM's time for a kernel that builds them per test;
// the incremental kernel builds one master per run and derives the
// per-leaf tables from it, which its exact counters pin. The relevant
// constraints stay RelevantConstraints(q, 100), unlike Figure 7(a)'s,
// because BENCH_baseline.json pins these results on that workload.
func fig7b(opts Options, x int) []benchjson.Result {
	q := genquery.Fan(101)
	closed := fanRedundant(genquery.RelevantConstraints(q, 100), x)
	params := func(kernel string) map[string]string {
		return map[string]string{"nodes": "101", "constraints": "100", "red": strconv.Itoa(x), "kernel": kernel}
	}
	name := func(series string) string { return fmt.Sprintf("fig7b/%s/red=%d", series, x) }

	tables := time.Duration(-1) // the minimum over runs, like a phase
	inc := measure(opts, traced(func(tr *trace.Trace) {
		if st := runACIM(q, closed, tr); tables < 0 || st.TablesTime < tables {
			tables = st.TablesTime
		}
	}))
	pl := chase.PlanFor(closed)
	plan := measure(opts, traced(func(tr *trace.Trace) { pl.AugmentTraced(q.Clone(), tr) }))
	out := []benchjson.Result{
		inc.result(name("incremental"), "incremental", float64(x), params("incremental"),
			counts(inc.tr, trace.Tests, trace.TablesBuilt, trace.TablesDerived)),
		{Name: name("tables"), Series: "tables", X: float64(x), Params: params("incremental"),
			NsPerOp: float64(tables.Nanoseconds())},
		plan.result(name("chase-plan"), "chase-plan", float64(x), params("chase-plan"),
			counts(plan.tr, trace.Augmented)),
	}
	for i := range out {
		out[i].Figure = "7b-incremental" // the tag BENCH_baseline.json pins
	}
	return out
}

// fig8a reproduces Figure 8(a): CDM time on a fixed 127-node query is
// flat in the number of stored constraints, because every probe is a
// hash lookup keyed by an argument pair. Two flavours are measured:
// growing numbers of query-relevant (but non-firing) constraints, and a
// fixed firing set plus a growing store of irrelevant constraints.
func fig8a(opts Options, x int) []benchjson.Result {
	bushy, _ := genquery.Bushy(127, 2)
	chain, chainCS := genquery.Chain(127)
	store := chainCS.Clone()
	for _, c := range genquery.Irrelevant(x).Constraints() {
		store.Add(c)
	}
	var out []benchjson.Result
	for _, s := range []struct {
		series string
		q      *pattern.Pattern
		cs     *ics.Set
	}{
		{"CDMconstant", bushy, genquery.RelevantConstraints(bushy, x).Closure()},
		{"IrrelevantStore", chain, store.Closure()},
	} {
		m, c := measureCDM(opts, s.q, s.cs)
		c["closed"] = int64(s.cs.Len())
		out = append(out, m.result(fmt.Sprintf("fig8a/%s/constraints=%d", s.series, x), s.series, float64(x),
			map[string]string{"nodes": "127", "constraints": strconv.Itoa(x)}, c))
	}
	return out
}

// fig8b reproduces Figure 8(b): CDM time versus query size for
// right-deep and bushy queries (linear, nearly identical) and for a flat
// query whose fanout grows with its size (quadratic trend). In every
// query all edges are redundant and only the root survives, as in the
// paper.
func fig8b(opts Options, x int) []benchjson.Result {
	var out []benchjson.Result
	for _, s := range []struct {
		series string
		gen    func(n int) (*pattern.Pattern, *ics.Set)
	}{
		{"RightDeep", genquery.Chain},
		{"Bushy", func(n int) (*pattern.Pattern, *ics.Set) { return genquery.Bushy(n, 2) }},
		{"VaryingFanout", genquery.Star},
	} {
		q, cs := s.gen(x)
		m, c := measureCDM(opts, q, cs.Closure())
		out = append(out, m.result(fmt.Sprintf("fig8b/%s/n=%d", s.series, x), s.series, float64(x),
			map[string]string{"n": strconv.Itoa(x)}, c))
	}
	return out
}

// fig9a reproduces Figure 9(a): ACIM versus CDM on Chain(n), where both
// remove exactly the same node set (every redundancy is local). CDM is
// expected to win by a growing margin.
func fig9a(opts Options, x int) []benchjson.Result {
	q, cs := genquery.Chain(x)
	closed := cs.Closure()
	params := map[string]string{"n": strconv.Itoa(x)}
	ac := measureACIM(opts, q, closed)
	cd, c := measureCDM(opts, q, closed)
	return []benchjson.Result{
		ac.result(fmt.Sprintf("fig9a/ACIM/n=%d", x), "ACIM", float64(x), params,
			counts(ac.tr, trace.ACIMRemoved, trace.Augmented)),
		cd.result(fmt.Sprintf("fig9a/CDM/n=%d", x), "CDM", float64(x), params, c),
	}
}

// fig9b reproduces Figure 9(b): direct ACIM versus CDM-as-a-pre-filter
// followed by ACIM, on HalfLocal queries where CDM can remove half of
// what ACIM removes. The pre-filtered pipeline is expected to win by a
// growing margin.
func fig9b(opts Options, x int) []benchjson.Result {
	q, cs := genquery.HalfLocal(x)
	closed := cs.Closure()
	n := q.Size()
	params := map[string]string{"n": strconv.Itoa(n)}
	direct := measureACIM(opts, q, closed)
	pre := measure(opts, traced(func(tr *trace.Trace) {
		p := q.Clone()
		cdm.MinimizeInPlaceTraced(p, closed, tr)
		runACIM(p, closed, tr)
	}))
	return []benchjson.Result{
		direct.result(fmt.Sprintf("fig9b/ACIM/n=%d", n), "ACIM", float64(n), params,
			counts(direct.tr, trace.ACIMRemoved)),
		pre.result(fmt.Sprintf("fig9b/CDMACIM/n=%d", n), "CDMACIM", float64(n), params,
			counts(pre.tr, trace.CDMRemoved, trace.ACIMRemoved)),
	}
}

// motivation is not in the paper's evaluation but demonstrates its
// premise (Section 1): matching time against a realistic publishing
// collection grows with pattern size, so the minimized pattern evaluates
// faster while returning the same answers. The query starts as the
// Figure 2(a) shape and gains x branches that are redundant under the
// domain's constraints; CDM+ACIM strips them all.
func motivation(opts Options, x int) []benchjson.Result {
	forest := data.GeneratePublishing(rand.New(rand.NewSource(1)), 600)
	cs := data.PublishingConstraints().Closure()
	redundant := []string{
		"//Paragraph", "//LastName", "/Title", "//Section//Paragraph",
		"/Author/LastName", "//Author", "/Section//Paragraph", "//Title",
	}
	src := "Articles/Article*[/Title, /Section//Paragraph, /Author"
	for _, r := range redundant[:x] {
		src += ", " + r
	}
	q := pattern.MustParse(src + "]")
	pre := q.Clone()
	cdm.MinimizeInPlace(pre, cs)
	min := acim.Minimize(pre, cs)
	answers := match.Count(q, forest)
	if match.Count(min, forest) != answers {
		panic("bench: motivation: minimization changed the answers")
	}
	var out []benchjson.Result
	for _, s := range []struct {
		series string
		q      *pattern.Pattern
	}{{"Original", q}, {"Minimized", min}} {
		m := measure(opts, untraced(func() { match.Answers(s.q, forest) }))
		out = append(out, m.result(fmt.Sprintf("motivation/%s/extra=%d", s.series, x), s.series, float64(x),
			map[string]string{"extra": strconv.Itoa(x), "nodes": strconv.Itoa(s.q.Size())},
			map[string]int64{"answers": int64(answers)}))
	}
	return out
}

// ablationCIM compares the naive CIM of internal/oracle (which retests
// every leaf after each deletion) with the production implementation of
// Figure 3 (enhancement 1: a non-redundant leaf never needs retesting).
func ablationCIM(opts Options, x int) []benchjson.Result {
	q := genquery.Redundant(x, x/2-2, 2)
	var out []benchjson.Result
	for _, s := range []struct {
		series string
		run    func(*pattern.Pattern) cim.Stats
	}{
		{"Incremental", func(p *pattern.Pattern) cim.Stats { return cim.MinimizeInPlace(p, cim.Options{}) }},
		{"Naive", oracle.MinimizeNaiveInPlace},
	} {
		var st cim.Stats
		m := measure(opts, func() (time.Duration, *trace.Trace) {
			st = s.run(q.Clone())
			return st.TotalTime, nil
		})
		out = append(out, m.result(fmt.Sprintf("ablation-cim/%s/n=%d", s.series, x), s.series, float64(x),
			map[string]string{"n": strconv.Itoa(x)},
			map[string]int64{"removed": int64(st.Removed), "tests": int64(st.Tests)}))
	}
	return out
}

// ablationClosure compares ACIM with a pre-closed constraint set against
// ACIM closing the set on every call — the cost of not amortizing the
// closure across queries.
func ablationClosure(opts Options, x int) []benchjson.Result {
	q := genquery.Redundant(60, 20, 2)
	raw := genquery.RelevantConstraints(q, x)
	closed := raw.Closure()
	params := map[string]string{"constraints": strconv.Itoa(x)}
	pre := measure(opts, func() (time.Duration, *trace.Trace) {
		_, st := acim.MinimizeWithStats(q, closed)
		return st.TotalTime, nil
	})
	perCall := measure(opts, untraced(func() { acim.Minimize(q, raw.Clone()) }))
	return []benchjson.Result{
		pre.result(fmt.Sprintf("ablation-closure/PreClosed/constraints=%d", x), "PreClosed", float64(x), params, nil),
		perCall.result(fmt.Sprintf("ablation-closure/PerCall/constraints=%d", x), "PerCall", float64(x), params, nil),
	}
}

// ablationCDM compares CDM's information-content propagation against
// the direct implementation of the same four local rules in
// internal/oracle, which walks the tree for every rule (iv) check — the
// inefficiency Section 5.4 says the information content exists to avoid.
func ablationCDM(opts Options, x int) []benchjson.Result {
	q, cs := genquery.DeepWitness((x - 1) / 2)
	closed := cs.Closure()
	n := q.Size()
	var out []benchjson.Result
	for _, s := range []struct {
		series string
		run    func(*pattern.Pattern, *ics.Set) cdm.Stats
	}{
		{"Propagated", cdm.MinimizeInPlace},
		{"Direct", oracle.MinimizeDirectInPlace},
	} {
		var removed int
		m := measure(opts, func() (time.Duration, *trace.Trace) {
			st := s.run(q.Clone(), closed)
			removed = st.Removed
			return st.TotalTime, nil
		})
		out = append(out, m.result(fmt.Sprintf("ablation-cdm/%s/n=%d", s.series, n), s.series, float64(n),
			map[string]string{"n": strconv.Itoa(n)}, map[string]int64{"removed": int64(removed)}))
	}
	return out
}

// batchWorkload builds the mixed query batch the batch-engine and
// serving experiments minimize: redundant, right-deep and bushy shapes
// of moderate size, sharing one constraint set. The set is
// RelevantConstraints(queries[0], 40), which saturates like Figure 7's
// (its chained pairs imply one another); it is kept as it is because the
// pinned service results measure it.
func batchWorkload(nQueries int) ([]*pattern.Pattern, *ics.Set) {
	var queries []*pattern.Pattern
	for i := 0; i < nQueries; i++ {
		switch i % 3 {
		case 0:
			queries = append(queries, genquery.Redundant(40, 15, 2))
		case 1:
			q, _ := genquery.Chain(40)
			queries = append(queries, q)
		default:
			q, _ := genquery.Bushy(40, 2)
			queries = append(queries, q)
		}
	}
	cs := genquery.RelevantConstraints(queries[0], 40)
	return queries, cs.Closure()
}

// batchMinimize measures the batch engine (package engine): wall-clock
// time to minimize a fixed mixed workload under the auto pipeline with x
// workers.
func batchMinimize(opts Options, x int) []benchjson.Result {
	nQueries := 32
	if opts.Quick {
		nQueries = 9
	}
	queries, cs := batchWorkload(nQueries)
	m := engine.New(engine.Options{Workers: x, Algo: engine.Auto, Constraints: cs})
	r := measure(opts, untraced(func() { m.MinimizeBatch(queries) }))
	return []benchjson.Result{r.result(fmt.Sprintf("batch/BatchTime/workers=%d", x), "BatchTime", float64(x),
		map[string]string{"workers": strconv.Itoa(x), "queries": strconv.Itoa(nQueries)}, nil)}
}
