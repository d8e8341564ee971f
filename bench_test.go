package tpq

// One testing.B benchmark per figure of the paper's evaluation (Section 6)
// plus the supplementary experiments of DESIGN.md. cmd/tpqbench produces
// the full parameter sweeps; these benchmarks pin the representative
// points so `go test -bench=. -benchmem` tracks them over time.

import (
	"fmt"
	"math/rand"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/bench"
	"tpq/internal/cdm"
	"tpq/internal/cim"
	"tpq/internal/containment"
	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// --- Figure 7(a): ACIM vs number of relevant constraints ---------------

func BenchmarkFig7aACIM(b *testing.B) {
	q := genquery.Fan(101)
	for _, nCons := range []int{0, 50, 100, 150} {
		b.Run(fmt.Sprintf("constraints=%d", nCons), func(b *testing.B) {
			cs := genquery.RelevantConstraints(q, nCons)
			for _, c := range genquery.FanRedundancy(50).Constraints() {
				cs.Add(c)
			}
			closed := cs.Closure()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acim.Minimize(q, closed)
			}
		})
	}
}

// --- Figure 7(b): table-building share of ACIM ---------------------------

func BenchmarkFig7bTables(b *testing.B) {
	q := genquery.Fan(101)
	csRaw := genquery.RelevantConstraints(q, 100)
	for _, c := range genquery.FanRedundancy(50).Constraints() {
		csRaw.Add(c)
	}
	cs := csRaw.Closure()
	var tables, total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := acim.MinimizeWithStats(q, cs)
		tables += st.TablesTime.Nanoseconds()
		total += st.TotalTime.Nanoseconds()
	}
	if total > 0 {
		b.ReportMetric(float64(tables)/float64(total)*100, "tables-%")
	}
}

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
	want, _ := acim.MinimizeWithRunner(q, cs, oracle.MinimizeMapInPlace)
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

// --- Figure 8(a): CDM vs stored constraints ------------------------------

func BenchmarkFig8aCDMConstraints(b *testing.B) {
	for _, k := range []int{0, 50, 150} {
		b.Run(fmt.Sprintf("stored=%d", k), func(b *testing.B) {
			q, cs := genquery.Chain(127)
			store := cs.Clone()
			for _, c := range genquery.Irrelevant(k).Constraints() {
				store.Add(c)
			}
			closed := store.Closure()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := q.Clone()
				b.StartTimer()
				cdm.MinimizeInPlace(clone, closed)
			}
		})
	}
}

// --- Figure 8(b): CDM vs query size and shape -----------------------------

func BenchmarkFig8bShape(b *testing.B) {
	shapes := []struct {
		name string
		make func(n int) (*pattern.Pattern, *ics.Set)
	}{
		{"RightDeep", genquery.Chain},
		{"Bushy", func(n int) (*pattern.Pattern, *ics.Set) { return genquery.Bushy(n, 2) }},
		{"VaryingFanout", genquery.Star},
	}
	for _, shape := range shapes {
		for _, n := range []int{40, 80, 120} {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				q, cs := shape.make(n)
				closed := cs.Closure()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					clone := q.Clone()
					b.StartTimer()
					cdm.MinimizeInPlace(clone, closed)
				}
			})
		}
	}
}

// --- Figure 9(a): ACIM vs CDM, same removable set -------------------------

func BenchmarkFig9a(b *testing.B) {
	for _, n := range []int{20, 60, 100} {
		q, cs := genquery.Chain(n)
		closed := cs.Closure()
		b.Run(fmt.Sprintf("ACIM/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acim.Minimize(q, closed)
			}
		})
		b.Run(fmt.Sprintf("CDM/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := q.Clone()
				b.StartTimer()
				cdm.MinimizeInPlace(clone, closed)
			}
		})
	}
}

// --- Figure 9(b): ACIM alone vs CDM pre-filter + ACIM ---------------------

func BenchmarkFig9b(b *testing.B) {
	for _, n := range []int{31, 61, 100} {
		q, cs := genquery.HalfLocal(n)
		closed := cs.Closure()
		b.Run(fmt.Sprintf("ACIM/n=%d", q.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acim.Minimize(q, closed)
			}
		})
		b.Run(fmt.Sprintf("CDMACIM/n=%d", q.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pre := q.Clone()
				cdm.MinimizeInPlace(pre, closed)
				acim.Minimize(pre, closed)
			}
		})
	}
}

// --- Motivation: evaluation cost before vs after minimization -------------

func BenchmarkMotivation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	forest, err := data.Generate(rng, data.GenOptions{
		Size:  5000,
		Types: []pattern.Type{"t0", "red", "u0", "u1", "a", "b"},
	})
	if err != nil {
		b.Fatal(err)
	}
	q := genquery.Redundant(27, 20, 2)
	min := cim.Minimize(q)
	b.Run("Original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			match.Answers(q, forest)
		}
	})
	b.Run("Minimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			match.Answers(min, forest)
		}
	})
}

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationCIM(b *testing.B) {
	q := genquery.Redundant(80, 38, 2)
	b.Run("Incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clone := q.Clone()
			b.StartTimer()
			cim.MinimizeInPlace(clone, cim.Options{})
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clone := q.Clone()
			b.StartTimer()
			oracle.MinimizeNaiveInPlace(clone)
		}
	})
}

func BenchmarkAblationCDM(b *testing.B) {
	for _, n := range []int{100, 400} {
		q, cs := genquery.DeepWitness(n / 2)
		closed := cs.Closure()
		b.Run(fmt.Sprintf("Propagated/n=%d", q.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := q.Clone()
				b.StartTimer()
				cdm.MinimizeInPlace(clone, closed)
			}
		})
		b.Run(fmt.Sprintf("Direct/n=%d", q.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := q.Clone()
				b.StartTimer()
				oracle.MinimizeDirectInPlace(clone, closed)
			}
		})
	}
}

func BenchmarkAblationClosure(b *testing.B) {
	q := genquery.Redundant(60, 20, 2)
	raw := genquery.RelevantConstraints(q, 100)
	closed := raw.Closure()
	b.Run("PreClosed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acim.Minimize(q, closed)
		}
	})
	b.Run("PerCall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acim.Minimize(q, raw.Clone())
		}
	})
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

func BenchmarkContainmentMap(b *testing.B) {
	p, q := containmentBenchPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if oracle.FindMappingMap(p, q) == nil {
			b.Fatal("self-mapping must exist")
		}
	}
}

// --- Batch engine scaling -------------------------------------------------

func BenchmarkBatchMinimize(b *testing.B) {
	queries, cs := bench.BatchWorkload(32)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := engine.New(engine.Options{Workers: w, Constraints: cs})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MinimizeBatch(queries)
			}
		})
	}
}

// --- Serving layer --------------------------------------------------------

// BenchmarkServiceThroughput measures a repeated workload (8 distinct
// queries × 8 occurrences each) through the per-call pipeline
// (MinimizeUnderConstraints semantics: closure + CDM+ACIM every request),
// a cold cached Minimizer (one pipeline run per distinct query), and a hot
// one (every request a cache hit). bench_results.txt records the spread.
func BenchmarkServiceThroughput(b *testing.B) {
	distinct, workload := bench.ServiceWorkload(8, 8)
	_, cs := bench.BatchWorkload(8)

	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range workload {
				MinimizeUnderConstraints(q, cs)
			}
		}
	})
	b.Run("cached-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewMinimizer(MinimizerOptions{Constraints: cs})
			for _, q := range workload {
				m.Minimize(q)
			}
		}
	})
	b.Run("cached-hot", func(b *testing.B) {
		m := NewMinimizer(MinimizerOptions{Constraints: cs})
		for _, q := range distinct {
			m.Minimize(q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range workload {
				m.Minimize(q)
			}
		}
	})
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
	q := MustParse("a*[/b//c, //d]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Answers(q, forest)
	}
}
