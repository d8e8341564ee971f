package cim

import (
	"math/rand"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/genquery"
	"tpq/internal/pattern"
)

// run is a minimization run driven through the node-based methods, with
// what a fresh build over its current query needs: a pristine copy q0 of
// the input, the map from the run's nodes to q0's, the plan the layout
// was augmented by (nil for none) and the removed nodes of q0.
type run struct {
	e       *Engine
	q0      *pattern.Pattern
	m       map[*pattern.Node]*pattern.Node
	pl      *chase.Plan
	removed map[*pattern.Node]bool
}

// newRun starts an engine over q, augmented through pl when pl is
// non-nil.
func newRun(q *pattern.Pattern, pl *chase.Plan) *run {
	r := &run{pl: pl, removed: make(map[*pattern.Node]bool)}
	r.q0, r.m = q.CloneMap()
	if pl == nil {
		r.e = NewEngine(q, Options{})
		return r
	}
	s, _ := pl.Augment(q, nil)
	r.e = newEngine(s, Options{})
	r.e.owned = true
	return r
}

func (r *run) remove(l *pattern.Node) {
	r.e.Remove(l)
	r.removed[r.m[l]] = true
}

// fresh builds an engine from scratch over the run's current query: q0
// laid out (and augmented) again, the subtrees of the removed nodes
// dropped, as a compaction drops them.
func (r *run) fresh() *Engine {
	s := chase.GetScratch(r.pl)
	s.Flatten(r.q0)
	if r.pl != nil {
		s.Augment(nil)
	}
	dead := make([]bool, len(s.Nodes))
	for i, v := range s.Nodes {
		if v != nil && r.removed[v] {
			for j := i; j <= int(s.End[i]); j++ {
				dead[j] = true
			}
		}
	}
	s.Keep(dead, make([]int32, len(s.Nodes)))
	e := newEngine(s, Options{})
	e.owned = true
	return e
}

// TestIncrementalVerdictsMatchScratch checks the derived per-leaf
// verdicts of a patched master against verdicts from a master built from
// scratch over the mutated query: after every removal of a random
// schedule on augmented queries, each remaining candidate must get the
// same verdict from the run's engine as from a fresh one.
func TestIncrementalVerdictsMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 250; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(10), 3)
		cs := genquery.RandomConstraints(rng, 4, 3).Closure()
		r := newRun(q, chase.Compile(cs))
		e := r.e
		for l := e.Pop(); l != nil; l = e.Pop() {
			fresh := r.fresh()
			for _, c := range e.Candidates() {
				if got, want := e.Test(c), fresh.Test(r.m[c]); got != want {
					t.Fatalf("trial %d: verdict differs for leaf %s: incr=%v scratch=%v\nquery = %s",
						trial, c.Type, got, want, q)
				}
			}
			fresh.Close()
			if e.Test(l) {
				r.remove(l)
			} else {
				e.MarkNonRedundant(l)
			}
		}
		e.Close()
	}
}

// liveRanks reads a master row back as the live ranks of its members —
// an ordinal's position among the live ones — so that a patched state,
// whose tombstones keep their ordinals, compares with a fresh build.
func liveRanks(e *Engine, v *pattern.Node) map[int]bool {
	rank := make([]int, e.n)
	for i, live := 0, 0; i < e.n; i++ {
		rank[i] = live
		if !e.dead[i] {
			live++
		}
	}
	row := e.masterRow(e.ordinal(v))
	out := make(map[int]bool)
	for mi := row.NextSet(0); mi >= 0; mi = row.NextSet(mi + 1) {
		out[rank[mi]] = true
	}
	return out
}

// checkMasterConsistent asserts that the run's patched master state is
// identical — row by row, as live ranks — to a master freshly built over
// the mutated query.
func checkMasterConsistent(t *testing.T, trial int, r *run, p *pattern.Pattern) {
	t.Helper()
	fresh := r.fresh()
	defer fresh.Close()
	p.Walk(func(v *pattern.Node) {
		got, want := liveRanks(r.e, v), liveRanks(fresh, r.m[v])
		if len(got) != len(want) {
			t.Fatalf("trial %d: master row of %s has %d images, fresh build has %d\npattern = %s",
				trial, v.Type, len(got), len(want), p)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: master row of %s misses image %d\npattern = %s",
					trial, v.Type, m, p)
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
	r := newRun(q, nil)
	e := r.e
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
	r.remove(d)
	checkMasterConsistent(t, 0, r, q)

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
// path, which renumbers the layout in place.
func TestMasterConsistentAfterRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		q := genquery.Random(rng, 4+rng.Intn(12), 3)
		var pl *chase.Plan
		if trial%2 == 1 {
			pl = chase.Compile(genquery.RandomConstraints(rng, 3, 3).Closure())
		}
		r := newRun(q, pl)
		e := r.e
		for l := e.Pop(); l != nil; l = e.Pop() {
			if e.Test(l) {
				r.remove(l)
				checkMasterConsistent(t, trial, r, q)
			} else {
				e.MarkNonRedundant(l)
			}
		}
		e.Close()
	}
}
