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
	"tpq/internal/ics"
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
		stB := oracle.MinimizeMapInPlace(b, nil)
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

// augmentBoth augments q under cs twice: through the plan, into a
// layout of q's own nodes for the production engine, and through the
// per-call chase, into a marked copy for the references. m maps q's
// nodes to the copy's.
func augmentBoth(q *pattern.Pattern, cs *ics.Set) (s *chase.Scratch, ref *pattern.Pattern, m map[*pattern.Node]*pattern.Node, w *oracle.Witnesses) {
	ref, m = q.CloneMap()
	w = oracle.Augment(ref, cs)
	s, _ = chase.Compile(cs).Augment(q, nil)
	return s, ref, m, w
}

// TestDenseMatchesMapVerdicts cross-validates the per-leaf redundancy
// verdict (the Figure 3 entry point) on augmented queries, so witnesses
// — image candidates that are never requirements — exercise the engine's
// row elision. The engine reads the plan's layout, the reference the
// per-call chase's marked pattern.
func TestDenseMatchesMapVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 250; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(10), 3)
		cs := genquery.RandomConstraints(rng, 4, 3).Closure()
		s, ref, m, w := augmentBoth(q, cs)
		e := cim.NewEngineOn(s, cim.Options{})
		for _, l := range e.Candidates() {
			got, want := e.Test(l), oracle.RedundantLeafMap(ref, m[l], w)
			if got != want {
				t.Fatalf("trial %d: verdict differs for leaf %s: dense=%v map=%v\nquery = %s",
					trial, l.Type, got, want, oracle.RenderMarked(ref, w))
			}
		}
		e.Close()
		s.Release()
	}
}

// TestIncrementalPropertySweep is the difffuzz-style cross-validation of
// the incremental engine: over >=1k random queries (half of them
// augmented — through the plan for the engine, through the per-call
// chase for the reference), the engine and the nested-map reference must
// produce identical final patterns and identical Removed/Tests counts,
// and the engine must have built at least one master table while
// deriving one table per test.
func TestIncrementalPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1200; trial++ {
		q := genquery.Random(rng, 1+rng.Intn(14), 3)
		inc := q.Clone()
		var stInc, stMap cim.Stats
		var mp *pattern.Pattern
		if trial%2 == 1 {
			cs := genquery.RandomConstraints(rng, 4, 3).Closure()
			s, _ := chase.Compile(cs).Augment(inc, nil)
			stInc = cim.MinimizeLayout(s, cim.Options{})
			s.Release()
			mp, stMap = oracle.MinimizeACIMMap(q, cs)
		} else {
			stInc = cim.MinimizeInPlace(inc, cim.Options{})
			mp = q.Clone()
			stMap = oracle.MinimizeMapInPlace(mp, nil)
		}

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
		// The walk runs on ref, q's copy — augmented by the per-call chase
		// when the engine's layout is augmented by the plan.
		ref, m := q.CloneMap()
		var s *chase.Scratch
		var w *oracle.Witnesses
		if trial%3 == 2 {
			cs := genquery.RandomConstraints(rng, 3, 3).Closure()
			s, ref, m, w = augmentBoth(q, cs)
		}
		var order, refOrder map[*pattern.Node]int
		if trial%2 == 1 {
			order, refOrder = make(map[*pattern.Node]int), make(map[*pattern.Node]int)
			q.Walk(func(n *pattern.Node) {
				if rng.Intn(2) == 0 {
					order[n] = rng.Intn(1000)
					refOrder[m[n]] = order[n]
				}
			})
		}
		var e *cim.Engine
		if s != nil {
			e = cim.NewEngineOn(s, cim.Options{Order: order})
		} else {
			e = cim.NewEngine(q, cim.Options{Order: order})
		}
		nonRed := make(map[*pattern.Node]bool)
		for step := 0; ; step++ {
			want := oracle.NextCandidate(ref, nonRed, refOrder, w)
			got := e.Pop()
			if m[got] != want {
				t.Fatalf("trial %d step %d: worklist popped %v, walk picked %v", trial, step, got, want)
			}
			if got == nil {
				break
			}
			if rng.Intn(2) == 0 { // pretend redundant: remove it
				e.Remove(got)
				want.Detach()
			} else {
				nonRed[want] = true
				e.MarkNonRedundant(got)
			}
		}
		e.Close()
		if s != nil {
			s.Release()
		}
	}
}
