package cim

import (
	"math/rand"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/genquery"
	"tpq/internal/pattern"
)

// TestIncrementalVerdictsMatchScratch checks the derived per-leaf
// verdicts of a patched master against verdicts from a master built from
// scratch over the mutated pattern: after every removal of a random
// schedule on augmented queries, each remaining candidate must get the
// same verdict from the run's engine as from a one-shot RedundantLeaf.
func TestIncrementalVerdictsMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 250; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(10), 3)
		cs := genquery.RandomConstraints(rng, 4, 3).Closure()
		chase.Compile(cs).Augment(q)
		e := NewEngine(q, Options{})
		for l := e.Pop(); l != nil; l = e.Pop() {
			for _, c := range e.Candidates() {
				if got, want := e.Test(c), RedundantLeaf(q, c); got != want {
					t.Fatalf("trial %d: verdict differs for leaf %s: incr=%v scratch=%v\nquery = %s",
						trial, c.Type, got, want, q)
				}
			}
			if e.Test(l) {
				e.Remove(l)
			} else {
				e.MarkNonRedundant(l)
			}
		}
		e.Close()
	}
}

// imageNodes reads a master row back as a set of image nodes, so states
// built over different exec indices (different ordinals) compare.
func imageNodes(e *Engine, v *pattern.Node) map[*pattern.Node]bool {
	row := e.masterRow(e.ordinal(v))
	out := make(map[*pattern.Node]bool)
	for mi := row.NextSet(0); mi >= 0; mi = row.NextSet(mi + 1) {
		out[e.s.Nodes[mi]] = true
	}
	return out
}

// checkMasterConsistent asserts that e's patched master state is
// identical — row by row, as node sets — to a master freshly built over
// the mutated pattern.
func checkMasterConsistent(t *testing.T, trial int, e *Engine, p *pattern.Pattern) {
	t.Helper()
	fresh := NewEngine(p, Options{})
	defer fresh.Close()
	p.Walk(func(v *pattern.Node) {
		if v.Temp {
			return
		}
		got := imageNodes(e, v)
		want := imageNodes(fresh, v)
		if len(got) != len(want) {
			t.Fatalf("trial %d: master row of %s has %d images, fresh build has %d\npattern = %s",
				trial, v.Type, len(got), len(want), p)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: master row of %s misses image %s\npattern = %s",
					trial, v.Type, m.Type, p)
			}
		}
	})
}

// TestFailedTestThenDistantRemoval is the regression demanded by the
// issue: a failed (negative) test must leave the master untouched, and a
// subsequent removal in a distant subtree must patch it to exactly the
// state a fresh build over the mutated pattern produces.
func TestFailedTestThenDistantRemoval(t *testing.T) {
	// r has two independent arms: the left arm's leaf b is not redundant
	// (nothing else can host an a/b branch), the right arm's duplicated
	// //d leaves are mutually redundant.
	q := pattern.MustParse("r*[a[b], c[//d, //d]]")
	e := NewEngine(q, Options{})
	defer e.Close()

	var b, d *pattern.Node
	q.Walk(func(n *pattern.Node) {
		switch n.Type {
		case "b":
			b = n
		case "d":
			if d == nil {
				d = n
			}
		}
	})
	if e.Test(b) {
		t.Fatal("left-arm leaf b should not be redundant")
	}
	e.MarkNonRedundant(b)
	if !e.Test(d) {
		t.Fatal("duplicated //d leaf should be redundant")
	}
	e.Remove(d)
	checkMasterConsistent(t, 0, e, q)

	// And the remaining verdicts still agree with a from-scratch test.
	for _, l := range e.Candidates() {
		if got, want := e.Test(l), RedundantLeaf(q, l); got != want {
			t.Fatalf("verdict for %s after patch: incr=%v scratch=%v", l.Type, got, want)
		}
	}
}

// TestMasterConsistentAfterRandomRuns drives random minimization
// schedules — interleaving failed tests and removals — and checks after
// every commit that the patched master equals a fresh build. This
// exercises the repair sweep's two regimes (ancestors recomputed from
// initial rows, non-ancestors re-filtered in place) and the compaction
// path.
func TestMasterConsistentAfterRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		q := genquery.Random(rng, 4+rng.Intn(12), 3)
		if trial%2 == 1 {
			cs := genquery.RandomConstraints(rng, 3, 3).Closure()
			chase.Compile(cs).Augment(q)
		}
		e := NewEngine(q, Options{})
		for l := e.Pop(); l != nil; l = e.Pop() {
			if e.Test(l) {
				e.Remove(l)
				checkMasterConsistent(t, trial, e, q)
			} else {
				e.MarkNonRedundant(l)
			}
		}
		e.Close()
	}
}
