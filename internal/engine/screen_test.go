package engine

import (
	"math/rand"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/genquery"
	"tpq/internal/pattern"
)

// TestScreenMatchesSequential cross-validates the parallel screening path
// against plain sequential minimization on random and augmented queries:
// Theorem 4.1 makes the minimum unique up to isomorphism, so the outputs
// must be isomorphic (equal canonical forms) and remove the same number
// of nodes, whatever order the rounds committed in.
func TestScreenMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(14), 3)
		if trial%2 == 1 {
			cs := genquery.RandomConstraints(rng, 4, 3).Closure()
			chase.Compile(cs).Augment(q)
		}
		seq := q.Clone()
		stSeq := cim.MinimizeInPlace(seq, cim.Options{})
		for _, workers := range []int{2, 4} {
			par := q.Clone()
			stPar := screenMinimize(par, cim.Options{}, workers)
			if par.Canonical() != seq.Canonical() {
				t.Fatalf("trial %d (workers=%d): outputs not isomorphic\ninput = %s\nseq = %s\npar = %s",
					trial, workers, q, seq, par)
			}
			if stPar.Removed != stSeq.Removed {
				t.Fatalf("trial %d (workers=%d): removed %d, sequential removed %d",
					trial, workers, stPar.Removed, stSeq.Removed)
			}
		}
	}
}

// TestScreenStalePositive pins the staleness hazard screening must
// survive: n identical sibling subtrees are each redundant against the
// full pattern, so one screening round returns many positive verdicts —
// but only n-1 of the siblings may actually go. The re-verify on commit
// has to catch the last one.
func TestScreenStalePositive(t *testing.T) {
	for _, src := range []string{
		"r*[a[b], a[b], a[b]]",
		"r*[//a, //a, //a, //a]",
		"r*[a[b, c], a[b, c], d]",
	} {
		q := pattern.MustParse(src)
		want := q.Clone()
		cim.MinimizeInPlace(want, cim.Options{})
		got := q.Clone()
		st := screenMinimize(got, cim.Options{}, 4)
		if got.Canonical() != want.Canonical() {
			t.Fatalf("%s: screened to %s, sequential to %s", src, got, want)
		}
		if got.Size() >= q.Size() {
			t.Fatalf("%s: screening removed nothing", src)
		}
		if st.Removed != q.Size()-got.Size() {
			t.Fatalf("%s: Removed = %d, size dropped by %d", src, st.Removed, q.Size()-got.Size())
		}
	}
}

// TestMinimizerScreensWhenParallel checks the wiring: a multi-worker
// Minimizer's single-query path must produce the same results as a
// single-worker one on a mixed batch of queries.
func TestMinimizerScreensWhenParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := genquery.RandomConstraints(rng, 5, 3)
	m1 := New(Options{Workers: 1, Constraints: cs})
	m4 := New(Options{Workers: 4, Constraints: cs})
	for trial := 0; trial < 120; trial++ {
		q := genquery.Random(rng, 2+rng.Intn(12), 3)
		r1 := m1.Minimize(q)
		r4 := m4.Minimize(q)
		if r1.Output.Canonical() != r4.Output.Canonical() {
			t.Fatalf("trial %d: outputs differ\nworkers=1: %s\nworkers=4: %s", trial, r1.Output, r4.Output)
		}
		if r1.Removed != r4.Removed {
			t.Fatalf("trial %d: removed %d vs %d", trial, r1.Removed, r4.Removed)
		}
	}
}
