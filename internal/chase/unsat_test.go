package chase_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// TestUnsatisfiableMatchesOracle sweeps the plan's unsatisfiability check
// against internal/oracle's pairwise reference: 2,500 random closed sets
// mixing all five constraint forms over 3-10 types, 24 random 1-12-node
// queries each, with extra types and types the set never mentions. The
// two must agree on every case, and the generator must keep producing
// both verdicts — at least 20% unsatisfiable — or the sweep says little.
func TestUnsatisfiableMatchesOracle(t *testing.T) {
	const sets, queriesPerSet = 2500, 24
	rng := rand.New(rand.NewSource(20))
	kinds := []func(a, b pattern.Type) ics.Constraint{ics.Child, ics.Desc, ics.Co, ics.ForbidChild, ics.ForbidDesc}
	cases, unsat := 0, 0
	for i := 0; i < sets; i++ {
		k := 3 + rng.Intn(8)
		types := make([]pattern.Type, k)
		for j := range types {
			types[j] = pattern.Type(fmt.Sprintf("t%d", j))
		}
		cs := ics.NewSet()
		for n := 2 + rng.Intn(k+3); n > 0; n-- {
			a, b := types[rng.Intn(k)], types[rng.Intn(k)]
			if a != b {
				cs.Add(kinds[rng.Intn(len(kinds))](a, b))
			}
		}
		closed := cs.Closure()
		pl := chase.Compile(closed)
		// Two types outside the set: the check must skip them.
		alphabet := append(types, "x0", "x1")
		for j := 0; j < queriesPerSet; j++ {
			q := randomQuery(rng, alphabet, 1+rng.Intn(12))
			got, want := pl.Unsatisfiable(q), oracle.UnsatisfiableUnder(q, closed)
			if got != want {
				t.Fatalf("plan says unsatisfiable=%v, oracle %v: %s under %v", got, want, q, closed)
			}
			cases++
			if want {
				unsat++
			}
		}
	}
	if frac := float64(unsat) / float64(cases); frac < 0.2 {
		t.Fatalf("only %d of %d cases (%.0f%%) are unsatisfiable; the sweep needs at least 20%%", unsat, cases, 100*frac)
	}
	t.Logf("%d cases, %d unsatisfiable", cases, unsat)
}

// randomQuery builds a size-node pattern over alphabet: each node hangs
// off a random earlier one over a random edge kind, about one in four
// carries one or two extra types, and one node is the output.
func randomQuery(rng *rand.Rand, alphabet []pattern.Type, size int) *pattern.Pattern {
	nodes := make([]*pattern.Node, size)
	for i := range nodes {
		n := pattern.NewNode(alphabet[rng.Intn(len(alphabet))])
		if rng.Intn(4) == 0 {
			for e := 1 + rng.Intn(2); e > 0; e-- {
				n.AddType(alphabet[rng.Intn(len(alphabet))])
			}
		}
		if i > 0 {
			nodes[rng.Intn(i)].AddChild(pattern.EdgeKind(rng.Intn(2)), n)
		}
		nodes[i] = n
	}
	nodes[rng.Intn(size)].Star = true
	return pattern.New(nodes[0])
}
