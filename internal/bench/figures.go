package bench

import (
	"math/rand"
	"time"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/cim"
	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// Fig7a reproduces Figure 7(a): ACIM time on a 101-node query as the total
// structural redundancy (redundant nodes × redundancy degree) sweeps from
// 10 to 90, with 0/50/100/150 constraints relevant to the query.
//
// Expected shape: for a fixed constraint count the curve is roughly flat in
// the redundancy total (the work is dominated by the query size), and more
// relevant constraints shift the whole curve up.
func Fig7a(opts Options) *Table {
	t := &Table{
		Title:   "Figure 7(a): ACIM time, varying redundancy and constraints",
		XLabel:  "RedNodes*Deg",
		YLabel:  "ACIM time",
		Comment: "flat per curve; curves ordered by constraint count",
	}
	q := genquery.Fan(101)
	for _, nCons := range opts.levels([]int{0, 50, 100, 150}) {
		series := seriesName(nCons)
		base := genquery.RelevantConstraints(q, nCons)
		for red := 10; red <= 90; red += opts.step(10) {
			cs := base.Clone()
			for _, c := range genquery.FanRedundancy(red).Constraints() {
				cs.Add(c)
			}
			closed := cs.Closure()
			y := Measure(opts, func() time.Duration {
				_, st := acim.MinimizeWithStats(q, closed)
				return st.TotalTime
			})
			t.Add(series, float64(red), y)
		}
	}
	return t
}

func seriesName(n int) string {
	if n == 0 {
		return "NoConstraint"
	}
	return itoa(n) + "Constraints"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Fig7b reproduces Figure 7(b): on the 101-node all-redundant query with
// 100 constraints, the fraction of ACIM's time spent building the images
// and ancestor/descendant tables (the paper reports ≈60%).
func Fig7b(opts Options) *Table {
	t := &Table{
		Title:   "Figure 7(b): ACIM total time vs table-building time (101 nodes, 100 constraints)",
		XLabel:  "RedNodes*Deg",
		YLabel:  "time",
		Comment: "TablesTime is a large, stable fraction of TotalTime",
	}
	q := genquery.Fan(101)
	base := genquery.RelevantConstraints(q, 100)
	for red := 10; red <= 90; red += opts.step(10) {
		cs := base.Clone()
		for _, c := range genquery.FanRedundancy(red).Constraints() {
			cs.Add(c)
		}
		cs = cs.Closure()
		var total, tables time.Duration
		Measure(opts, func() time.Duration {
			_, st := acim.MinimizeWithStats(q, cs)
			if total == 0 || st.TotalTime < total {
				total, tables = st.TotalTime, st.TablesTime
			}
			return st.TotalTime
		})
		t.Add("TotalTime", float64(red), total)
		t.Add("TablesTime", float64(red), tables)
	}
	return t
}

// Fig8a reproduces Figure 8(a): CDM time on a fixed 127-node query is flat
// in the number of stored constraints, because every probe is a hash
// lookup keyed by an argument pair. Two flavours are measured: growing
// numbers of query-relevant (but non-firing) constraints, and a fixed
// firing set plus a growing store of irrelevant constraints.
func Fig8a(opts Options) *Table {
	t := &Table{
		Title:   "Figure 8(a): CDM time vs number of constraints (127-node query)",
		XLabel:  "Constraints",
		YLabel:  "CDM time",
		Comment: "flat: hash-indexed constraints cost the same regardless of store size",
	}
	bushy, _ := genquery.Bushy(127, 2)
	chain, chainCS := genquery.Chain(127)
	for k := 0; k <= 150; k += opts.step(15) {
		rel := genquery.RelevantConstraints(bushy, k).Closure()
		y := Measure(opts, func() time.Duration {
			st := cdm.MinimizeInPlace(bushy.Clone(), rel)
			return st.TotalTime
		})
		t.Add("CDMconstant", float64(k), y)

		store := chainCS.Clone()
		for _, c := range genquery.Irrelevant(k).Constraints() {
			store.Add(c)
		}
		closed := store.Closure()
		y2 := Measure(opts, func() time.Duration {
			st := cdm.MinimizeInPlace(chain.Clone(), closed)
			return st.TotalTime
		})
		t.Add("IrrelevantStore", float64(k), y2)
	}
	return t
}

// Fig8b reproduces Figure 8(b): CDM time versus query size for right-deep
// and bushy queries (linear, nearly identical) and for a flat query whose
// fanout grows with its size (quadratic trend). In every query all edges
// are redundant and only the root survives, as in the paper.
func Fig8b(opts Options) *Table {
	t := &Table{
		Title:   "Figure 8(b): CDM time vs query size and shape (110 relevant constraints)",
		XLabel:  "QuerySize",
		YLabel:  "CDM time",
		Comment: "RightDeep ≈ Bushy, linear; VaryingFanout grows quadratically",
	}
	for n := 10; n <= 140; n += opts.step(10) {
		chain, chainCS := genquery.Chain(n)
		closedChain := chainCS.Closure()
		t.Add("RightDeep", float64(n), Measure(opts, func() time.Duration {
			return cdm.MinimizeInPlace(chain.Clone(), closedChain).TotalTime
		}))

		bushy, bushyCS := genquery.Bushy(n, 2)
		closedBushy := bushyCS.Closure()
		t.Add("Bushy", float64(n), Measure(opts, func() time.Duration {
			return cdm.MinimizeInPlace(bushy.Clone(), closedBushy).TotalTime
		}))

		star, starCS := genquery.Star(n)
		closedStar := starCS.Closure()
		t.Add("VaryingFanout", float64(n), Measure(opts, func() time.Duration {
			return cdm.MinimizeInPlace(star.Clone(), closedStar).TotalTime
		}))
	}
	return t
}

// Fig9a reproduces Figure 9(a): ACIM versus CDM on queries where both
// remove exactly the same node set (every redundancy is local). CDM is
// expected to win by a growing margin.
func Fig9a(opts Options) *Table {
	t := &Table{
		Title:   "Figure 9(a): ACIM vs CDM, same nodes removed, growing query size",
		XLabel:  "QuerySize",
		YLabel:  "time",
		Comment: "CDM ≪ ACIM; the gap grows with query size",
	}
	for n := 10; n <= 100; n += opts.step(10) {
		q, cs := genquery.Chain(n)
		closed := cs.Closure()
		t.Add("ACIM", float64(n), Measure(opts, func() time.Duration {
			_, st := acim.MinimizeWithStats(q, closed)
			return st.TotalTime
		}))
		t.Add("CDM", float64(n), Measure(opts, func() time.Duration {
			return cdm.MinimizeInPlace(q.Clone(), closed).TotalTime
		}))
	}
	return t
}

// Fig9b reproduces Figure 9(b): direct ACIM versus CDM-as-a-pre-filter
// followed by ACIM, on queries where CDM can remove half of what ACIM
// removes. The pre-filtered pipeline is expected to win by a growing
// margin.
func Fig9b(opts Options) *Table {
	t := &Table{
		Title:   "Figure 9(b): ACIM alone vs CDM pre-filter + ACIM",
		XLabel:  "QuerySize",
		YLabel:  "time",
		Comment: "CDMACIM below ACIM; the gap grows with query size",
	}
	for n := 10; n <= 100; n += opts.step(9) {
		q, cs := genquery.HalfLocal(n)
		closed := cs.Closure()
		t.Add("ACIM", float64(q.Size()), Measure(opts, func() time.Duration {
			_, st := acim.MinimizeWithStats(q, closed)
			return st.TotalTime
		}))
		t.Add("CDMACIM", float64(q.Size()), Measure(opts, func() time.Duration {
			start := time.Now()
			pre := q.Clone()
			cdm.MinimizeInPlace(pre, closed)
			acim.Minimize(pre, closed)
			return time.Since(start)
		}))
	}
	return t
}

// Motivation is not in the paper's evaluation but demonstrates its premise
// (Section 1): matching time against a realistic publishing collection
// grows with pattern size, so the minimized pattern evaluates faster while
// returning the same answers. The query starts as the Figure 2(a) shape
// and gains progressively more branches that are redundant under the
// domain's constraints; CDM+ACIM strips them all.
func Motivation(opts Options) *Table {
	t := &Table{
		Title:   "Motivation: evaluation time before vs after minimization (publishing corpus)",
		XLabel:  "ExtraBranches",
		YLabel:  "match time",
		Comment: "Original grows with redundancy; Minimized stays flat",
	}
	rng := rand.New(rand.NewSource(1))
	forest := data.GeneratePublishing(rng, 600)
	cs := data.PublishingConstraints().Closure()
	redundant := []string{
		"//Paragraph", "//LastName", "/Title", "//Section//Paragraph",
		"/Author/LastName", "//Author", "/Section//Paragraph", "//Title",
	}
	for extra := 0; extra <= len(redundant); extra += 2 {
		src := "Articles/Article*[/Title, /Section//Paragraph, /Author"
		for i := 0; i < extra; i++ {
			src += ", " + redundant[i]
		}
		src += "]"
		q := pattern.MustParse(src)
		pre := q.Clone()
		cdm.MinimizeInPlace(pre, cs)
		min := acim.Minimize(pre, cs)
		if match.Count(q, forest) != match.Count(min, forest) {
			panic("motivation: minimization changed the answers")
		}
		t.Add("Original", float64(extra), Measure(opts, Timed(func() {
			match.Answers(q, forest)
		})))
		t.Add("Minimized", float64(extra), Measure(opts, Timed(func() {
			match.Answers(min, forest)
		})))
	}
	return t
}

// AblationCIM compares the naive CIM of internal/oracle (which retests
// every leaf after each deletion) with the production implementation of
// Figure 3 (enhancement 1: a non-redundant leaf never needs retesting).
func AblationCIM(opts Options) *Table {
	t := &Table{
		Title:   "Ablation: naive CIM vs incremental CIM (Figure 3, enhancement 1)",
		XLabel:  "QuerySize",
		YLabel:  "time",
		Comment: "naive grows faster; both return the same minimal query",
	}
	for n := 20; n <= 100; n += opts.step(20) {
		q := genquery.Redundant(n, n/2-2, 2)
		t.Add("Incremental", float64(n), Measure(opts, func() time.Duration {
			return cim.MinimizeInPlace(q.Clone(), cim.Options{}).TotalTime
		}))
		t.Add("Naive", float64(n), Measure(opts, func() time.Duration {
			return oracle.MinimizeNaiveInPlace(q.Clone()).TotalTime
		}))
	}
	return t
}

// AblationClosure compares ACIM with a pre-closed constraint set against
// ACIM closing the set on every call — the cost of not amortizing the
// closure across queries.
func AblationClosure(opts Options) *Table {
	t := &Table{
		Title:   "Ablation: ACIM with pre-closed vs per-call-closed constraints",
		XLabel:  "Constraints",
		YLabel:  "time",
		Comment: "pre-closed flat-ish; per-call pays closure each time",
	}
	q := genquery.Redundant(60, 20, 2)
	for k := 20; k <= 120; k += opts.step(20) {
		raw := genquery.RelevantConstraints(q, k)
		closed := raw.Closure()
		t.Add("PreClosed", float64(k), Measure(opts, func() time.Duration {
			_, st := acim.MinimizeWithStats(q, closed)
			return st.TotalTime
		}))
		t.Add("PerCall", float64(k), Measure(opts, func() time.Duration {
			start := time.Now()
			acim.Minimize(q, raw.Clone())
			return time.Since(start)
		}))
	}
	return t
}

// AblationCDM compares CDM's information-content propagation against the
// direct implementation of the same four local rules in internal/oracle,
// which walks the tree for every rule (iv) check — the inefficiency
// Section 5.4 says the information content exists to avoid.
func AblationCDM(opts Options) *Table {
	t := &Table{
		Title:   "Ablation: CDM information content vs direct rule scanning (Section 5.4)",
		XLabel:  "QuerySize",
		YLabel:  "time",
		Comment: "direct is quadratic (subtree walk per deep-witness check); propagated near-linear, crossing over around 250 nodes",
	}
	for n := 101; n <= 801; n += opts.step(100) {
		q, cs := genquery.DeepWitness((n - 1) / 2)
		closed := cs.Closure()
		t.Add("Propagated", float64(q.Size()), Measure(opts, func() time.Duration {
			return cdm.MinimizeInPlace(q.Clone(), closed).TotalTime
		}))
		t.Add("Direct", float64(q.Size()), Measure(opts, func() time.Duration {
			return oracle.MinimizeDirectInPlace(q.Clone(), closed).TotalTime
		}))
	}
	return t
}

// BatchWorkload builds the mixed query batch the batch-engine experiment
// and benchmarks minimize: redundant, right-deep and bushy shapes of
// moderate size, sharing one constraint set.
func BatchWorkload(nQueries int) ([]*pattern.Pattern, *ics.Set) {
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

// BatchMinimize measures the batch engine (package engine): wall-clock
// time to minimize a fixed mixed workload under the auto pipeline as the
// worker count grows.
func BatchMinimize(opts Options) *Table {
	t := &Table{
		Title:   "Batch engine: wall-clock time to minimize a mixed workload vs workers",
		XLabel:  "Workers",
		YLabel:  "batch time",
		Comment: "time drops with workers until cores or stragglers bound it",
	}
	nQueries := 32
	if opts.Quick {
		nQueries = 9
	}
	queries, cs := BatchWorkload(nQueries)
	for _, w := range []int{1, 2, 4, 8} {
		m := engine.New(engine.Options{Workers: w, Algo: engine.Auto, Constraints: cs})
		t.Add("BatchTime", float64(w), Measure(opts, Timed(func() {
			m.MinimizeBatch(queries)
		})))
	}
	return t
}

// Figure is one experiment: the id tpqbench -fig selects it by and the
// runner that measures it.
type Figure struct {
	ID  string
	Run func(Options) *Table
}

// Figures lists every experiment in presentation order.
var Figures = []Figure{
	{"7a", Fig7a},
	{"7b", Fig7b},
	{"8a", Fig8a},
	{"8b", Fig8b},
	{"9a", Fig9a},
	{"9b", Fig9b},
	{"motivation", Motivation},
	{"ablation-cim", AblationCIM},
	{"ablation-closure", AblationClosure},
	{"ablation-cdm", AblationCDM},
	{"batch", BatchMinimize},
	{"service", ServiceThroughput},
	{"service-scale", ServiceScale},
	{"match", FigMatch},
	{"or", FigOr},
}
