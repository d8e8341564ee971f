package cim_test

// Cross-checks of the production kernel against the references in
// internal/oracle. They live in the external test package because oracle
// imports cim.

import (
	"math/rand"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/genquery"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// TestDenseMatchesMapMinimize cross-validates full minimization on small
// random queries: the incremental bitset engine and the nested-map
// reference must produce byte-identical minimal queries and identical
// statistics.
func TestDenseMatchesMapMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		q := genquery.Random(rng, 1+rng.Intn(14), 3)
		a := q.Clone()
		stA := cim.MinimizeInPlace(a, cim.Options{})
		b := q.Clone()
		stB := oracle.MinimizeMapInPlace(b)
		if a.String() != b.String() {
			t.Fatalf("trial %d: outputs differ\ninput = %s\ndense = %s\nmap   = %s",
				trial, q, a, b)
		}
		if stA.Removed != stB.Removed || stA.Tests != stB.Tests {
			t.Fatalf("trial %d: stats differ: dense removed=%d tests=%d, map removed=%d tests=%d",
				trial, stA.Removed, stA.Tests, stB.Removed, stB.Tests)
		}
	}
}

// TestDenseMatchesMapVerdicts cross-validates the per-leaf redundancy
// verdict (the Figure 3 entry point) on augmented queries, so
// temporaries — image candidates that are never requirements — exercise
// the engine's row elision.
func TestDenseMatchesMapVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 250; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(10), 3)
		cs := genquery.RandomConstraints(rng, 4, 3).Closure()
		chase.Compile(cs).Augment(q)
		e := cim.NewEngine(q, cim.Options{})
		leaves := e.Candidates()
		e.Close()
		for _, l := range leaves {
			got, want := cim.RedundantLeaf(q, l), oracle.RedundantLeafMap(q, l)
			if got != want {
				t.Fatalf("trial %d: verdict differs for leaf %s: dense=%v map=%v\nquery = %s",
					trial, l.Type, got, want, q)
			}
		}
	}
}

// TestIncrementalPropertySweep is the difffuzz-style cross-validation of
// the incremental engine: over >=1k random queries (half of them
// augmented), the engine and the nested-map reference must produce
// identical final patterns and identical Removed/Tests counts, and the
// engine must have built at least one master table while deriving one
// table per test.
func TestIncrementalPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1200; trial++ {
		q := genquery.Random(rng, 1+rng.Intn(14), 3)
		if trial%2 == 1 {
			cs := genquery.RandomConstraints(rng, 4, 3).Closure()
			chase.Compile(cs).Augment(q)
		}
		inc := q.Clone()
		stInc := cim.MinimizeInPlace(inc, cim.Options{})
		mp := q.Clone()
		stMap := oracle.MinimizeMapInPlace(mp)

		if inc.String() != mp.String() {
			t.Fatalf("trial %d: outputs differ\ninput = %s\nincr  = %s\nmap   = %s",
				trial, q, inc, mp)
		}
		if stInc.Removed != stMap.Removed || stInc.Tests != stMap.Tests {
			t.Fatalf("trial %d: stats differ: incr removed=%d tests=%d, map removed=%d tests=%d",
				trial, stInc.Removed, stInc.Tests, stMap.Removed, stMap.Tests)
		}
		if stInc.TablesDerived != stInc.Tests {
			t.Fatalf("trial %d: incremental derived %d tables for %d tests", trial, stInc.TablesDerived, stInc.Tests)
		}
		if stInc.Tests > 0 && stInc.TablesBuilt < 1 {
			t.Fatalf("trial %d: incremental run built no master", trial)
		}
		if stMap.TablesBuilt != stMap.Tests || stMap.TablesDerived != 0 {
			t.Fatalf("trial %d: map accounting built=%d derived=%d for %d tests",
				trial, stMap.TablesBuilt, stMap.TablesDerived, stMap.Tests)
		}
	}
}

// TestNaiveMatchesFast checks that naive CIM (no enhancement 1) reaches
// the same minimal query as the production run, with more tests.
func TestNaiveMatchesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		q := genquery.Random(rng, 1+rng.Intn(8), 3)
		fast := q.Clone()
		stFast := cim.MinimizeInPlace(fast, cim.Options{})
		naive := q.Clone()
		st := oracle.MinimizeNaiveInPlace(naive)
		if !pattern.Isomorphic(fast, naive) {
			t.Fatalf("iter %d: naive and fast disagree on %s", i, q)
		}
		if st.Removed != stFast.Removed || st.Tests < stFast.Tests {
			t.Fatalf("iter %d: naive removed %d in %d tests, fast removed %d in %d",
				i, st.Removed, st.Tests, stFast.Removed, stFast.Tests)
		}
		if st.TotalTime < st.TablesTime {
			t.Fatal("stats: tables time exceeds total time")
		}
	}
}

// TestWorklistMatchesWalkOracle replays random minimization traces and
// asserts that the engine's worklist pops candidates in exactly the order
// the full-pattern walk (oracle.NextCandidate) picks them — with and
// without an explicit Order map.
func TestWorklistMatchesWalkOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(12), 3)
		if trial%3 == 2 {
			cs := genquery.RandomConstraints(rng, 3, 3).Closure()
			chase.Compile(cs).Augment(q)
		}
		var order map[*pattern.Node]int
		if trial%2 == 1 {
			order = make(map[*pattern.Node]int)
			q.Walk(func(n *pattern.Node) {
				if rng.Intn(2) == 0 {
					order[n] = rng.Intn(1000)
				}
			})
		}
		e := cim.NewEngine(q, cim.Options{Order: order})
		nonRed := make(map[*pattern.Node]bool)
		for step := 0; ; step++ {
			want := oracle.NextCandidate(q, nonRed, order)
			got := e.Pop()
			if got != want {
				t.Fatalf("trial %d step %d: worklist popped %v, walk picked %v", trial, step, got, want)
			}
			if got == nil {
				break
			}
			if rng.Intn(2) == 0 { // pretend redundant: remove it
				e.Remove(got)
			} else {
				nonRed[got] = true
				e.MarkNonRedundant(got)
			}
		}
		e.Close()
	}
}
