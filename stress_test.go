package tpq

// Scale and robustness tests: deep chains, wide fans, large forests. These
// guard against stack blowups and accidental quadratic cliffs in code
// paths the unit tests only exercise at toy sizes.

import (
	"math/rand"
	"strings"
	"testing"

	"tpq/internal/oracle"
)

func deepChain(depth int) *Pattern {
	var b strings.Builder
	b.WriteString("t0*")
	for i := 1; i < depth; i++ {
		b.WriteString("/n")
	}
	return MustParse(b.String())
}

func TestDeepChainOperations(t *testing.T) {
	// Depth 2000 exercises parser, printer, clone and canonical-form
	// recursion. A same-typed chain is the minimizers' worst case
	// (every node is an image candidate of every other), so containment
	// and minimization run at reduced depths that still dwarf real
	// queries.
	const depth = 2000
	p := deepChain(depth)
	if p.Size() != depth {
		t.Fatalf("Size = %d", p.Size())
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(p, q) {
		t.Fatal("deep round trip broke isomorphism")
	}
	mid := deepChain(300)
	if !Equivalent(mid, mid.Clone()) {
		t.Fatal("chain not equivalent to its copy")
	}
	// Minimization is a fixpoint: the chain admits no endomorphism moving
	// any leaf upward — each suffix is longer than what remains below any
	// shallower image.
	small := deepChain(120)
	if got := Minimize(small); got.Size() != 120 {
		t.Fatalf("chain shrank to %d", got.Size())
	}
}

func TestWideFanOperations(t *testing.T) {
	// 400 identical children: every leaf is mutually redundant with every
	// other, the quadratic worst case for the sibling machinery.
	const width = 400
	var b strings.Builder
	b.WriteString("root*[")
	for i := 0; i < width; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("/c")
	}
	b.WriteString("]")
	p := MustParse(b.String())
	if p.Size() != width+1 {
		t.Fatalf("Size = %d", p.Size())
	}
	// All duplicate children collapse to one.
	min := Minimize(p)
	if min.Size() != 2 {
		t.Fatalf("fan minimized to %d nodes, want 2", min.Size())
	}
}

func TestDeepDataMatching(t *testing.T) {
	// A 5000-deep data chain; matching must not recurse per node pair.
	root := NewDataNode("a")
	cur := root
	for i := 0; i < 5000; i++ {
		cur = cur.Child("a")
	}
	cur.AddType("leaf")
	f := NewForest(root)
	q := MustParse("a*//leaf")
	if got := MatchCount(q, f); got != 5000 {
		t.Fatalf("MatchCount = %d, want 5000", got)
	}
	if got := len(oracle.BindingsMap(q, f)[q.OutputNode()]); got != 5000 {
		t.Fatalf("reference bindings = %d", got)
	}
}

func TestLargeForestConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f, err := GenerateForest(rng, 30000, []Type{"a", "b", "c", "d", "e"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(MatcherOptions{Index: NewMatchIndex(f)})
	for _, src := range []string{"a*[/b, //c]", "e*//e", "a/b/c*"} {
		q := MustParse(src)
		got := m.Match(q)
		want := oracle.BindingsMap(q, f)[q.OutputNode()]
		if len(got) != len(want) {
			t.Fatalf("%s: matcher %d vs reference %d", src, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: answer %d differs", src, i)
			}
		}
	}
}

func TestMinimizeMediumRandomQueries(t *testing.T) {
	// Minimization at the paper's experiment scale stays well-behaved.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10; i++ {
		q := GenerateQuery(rng, 150, 6)
		min := Minimize(q)
		if min.Size() > q.Size() {
			t.Fatal("minimization grew the query")
		}
		if !Equivalent(min, q) {
			t.Fatal("minimization broke equivalence")
		}
	}
}

func TestManyConstraintsClosure(t *testing.T) {
	// A closure over a 60-type mixed constraint web stays quadratic.
	cs := NewConstraints()
	for i := 0; i < 60; i++ {
		a := Type(strings.Repeat("x", 1) + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		b := Type(string(rune('A'+(i+1)%26)) + string(rune('0'+(i+1)/26)))
		switch i % 3 {
		case 0:
			cs.Add(RequiredChild(a, b))
		case 1:
			cs.Add(RequiredDescendant(a, b))
		default:
			cs.Add(CoOccurrence(a, b))
		}
	}
	closed := cs.Closure()
	if closed.Len() < cs.Len() {
		t.Fatal("closure lost constraints")
	}
	if !closed.IsClosed() {
		t.Fatal("closure not closed")
	}
}
