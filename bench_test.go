package tpq

// Micro-benchmarks of the substrate, plus the Figure 7(b) divergence
// gate that `make bench-smoke` runs. The paper's figures and the
// supplementary experiments are measured by cmd/tpqbench (`make bench`
// runs their quick grids); a benchmark here must not re-measure one of
// their points.

import (
	"math/rand"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/containment"
	"tpq/internal/data"
	"tpq/internal/genquery"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// BenchmarkFig7bIncremental pins the incremental images-table engine (one
// master per run, per-leaf tables derived by interval masking) on the
// Figure 7(b) workload. It doubles as the bench-smoke verdict gate: an
// output that diverges from ACIM with the nested-map reference kernel
// fails the benchmark.
func BenchmarkFig7bIncremental(b *testing.B) {
	q := genquery.Fan(101)
	csRaw := genquery.RelevantConstraints(q, 100)
	for _, c := range genquery.FanRedundancy(50).Constraints() {
		csRaw.Add(c)
	}
	cs := csRaw.Closure()
	want, _ := oracle.MinimizeACIMMap(q, cs)
	wantCanon := want.Canonical()
	var built, derived int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, st := acim.MinimizeWithStats(q, cs)
		built, derived = st.TablesBuilt, st.TablesDerived
		if out.Canonical() != wantCanon {
			b.Fatalf("incremental kernel diverged from the map reference: got %s, want %s", out, want)
		}
	}
	b.ReportMetric(float64(built), "tables-built")
	b.ReportMetric(float64(derived), "tables-derived")
}

// --- Micro-benchmarks of the substrate -------------------------------------

func BenchmarkParse(b *testing.B) {
	const src = "Articles/Article*[/Title, //Paragraph, /Section//Paragraph]"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainment(b *testing.B) {
	p := MustParse("OrgUnit*/Dept/Researcher//DBProject")
	q := MustParse("OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]")
	for i := 0; i < b.N; i++ {
		if !Contains(p, q) {
			b.Fatal("containment broken")
		}
	}
}

// --- Dense vs map execution kernels --------------------------------------

// containmentBenchPair returns a heavily redundant query paired with
// itself: a self-mapping always exists, so both kernels do full DP work.
func containmentBenchPair() (*pattern.Pattern, *pattern.Pattern) {
	q := genquery.Redundant(80, 30, 3)
	return q, q
}

func BenchmarkContainmentDense(b *testing.B) {
	p, q := containmentBenchPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if containment.FindMapping(p, q) == nil {
			b.Fatal("self-mapping must exist")
		}
	}
}

// BenchmarkContainmentAugmented maps a 20-node query over the publishing
// types, augmented under the publishing constraints by the per-call chase
// with its witnesses kept, into itself: one FindMapping the size of those
// or-absorption and ContainedUnder run.
func BenchmarkContainmentAugmented(b *testing.B) {
	types := []pattern.Type{"Articles", "Article", "Title", "Author", "LastName", "FirstName", "Section", "Paragraph"}
	rng := rand.New(rand.NewSource(1))
	nodes := []*pattern.Node{pattern.NewNode("Articles")}
	for len(nodes) < 20 {
		child := pattern.NewNode(types[rng.Intn(len(types))])
		nodes = append(nodes, nodes[rng.Intn(len(nodes))].AddChild(pattern.EdgeKind(rng.Intn(2)), child))
	}
	nodes[len(nodes)-1].Star = true
	q := pattern.New(nodes[0])
	oracle.Augment(q, data.PublishingConstraints().Closure())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if containment.FindMapping(q, q) == nil {
			b.Fatal("self-mapping must exist")
		}
	}
	b.ReportMetric(float64(q.Size()), "nodes")
}

func BenchmarkContainmentMap(b *testing.B) {
	p, q := containmentBenchPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if oracle.FindMappingMap(p, q) == nil {
			b.Fatal("self-mapping must exist")
		}
	}
}

func BenchmarkClosure(b *testing.B) {
	_, cs := genquery.Chain(60)
	for i := 0; i < b.N; i++ {
		cs.Closure()
	}
}

func BenchmarkMatch5k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	forest, err := data.Generate(rng, data.GenOptions{
		Size:  5000,
		Types: []pattern.Type{"a", "b", "c", "d"},
	})
	if err != nil {
		b.Fatal(err)
	}
	m := NewMatcher(MatcherOptions{Forest: forest})
	q := MustParse("a*[/b//c, //d]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
}
