package containment

import (
	"math/rand"
	"testing"

	"tpq/internal/data"
	"tpq/internal/pattern"
)

func TestContainsWithConditions(t *testing.T) {
	cases := []struct {
		super, sub string
		want       bool
	}{
		// The weaker-condition query contains the stronger one.
		{"a*/b(@p<100)", "a*/b(@p<50)", true},
		{"a*/b(@p<50)", "a*/b(@p<100)", false},
		{"a*/b", "a*/b(@p<50)", true},
		{"a*/b(@p<50)", "a*/b", false},
		{"a*/b(@p!=3)", "a*/b(@p=5)", true},
		{"a*/b(@p=5)", "a*/b(@p!=3)", false},
		{"a*/b(@p<100)", "a*/b(@q<50)", false}, // different attributes
		// Condition at the output node.
		{"a*(@r>0)", "a*(@r>1)", true},
		{"a*(@r>1)", "a*(@r>0)", false},
	}
	for _, c := range cases {
		if got := Contains(mp(c.super), mp(c.sub)); got != c.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", c.super, c.sub, got, c.want)
		}
	}
}

// randomCondQuery attaches random price/year conditions to a random query.
func randomCondQuery(rng *rand.Rand, size int) *pattern.Pattern {
	q := randomQuery(rng, size, []pattern.Type{"a", "b"})
	q.Walk(func(n *pattern.Node) {
		if rng.Intn(3) != 0 {
			return
		}
		attr := []string{"p", "q"}[rng.Intn(2)]
		op := []pattern.Op{pattern.OpLt, pattern.OpLe, pattern.OpGt, pattern.OpGe, pattern.OpEq, pattern.OpNe}[rng.Intn(6)]
		n.AddCond(pattern.Condition{Attr: attr, Op: op, Value: float64(rng.Intn(5))})
	})
	return q
}

func TestConditionedMappingIsSound(t *testing.T) {
	// With value conditions a single canonical database no longer decides
	// containment exactly (the sampled attributes may accidentally satisfy
	// a stricter condition), so only the sound direction is checked: if a
	// mapping exists, the super-query must answer on the sub-query's
	// canonical databases wherever the sub-query does.
	rng := rand.New(rand.NewSource(97))
	found := 0
	for i := 0; i < 300; i++ {
		super := randomCondQuery(rng, 1+rng.Intn(4))
		sub := randomCondQuery(rng, 1+rng.Intn(4))
		if !Contains(super, sub) {
			continue
		}
		found++
		for hops := 0; hops <= 1; hops++ {
			f, m := data.Canonical(sub, hops)
			want := m[sub.OutputNode()]
			if !pattern.Satisfiable(flattenConds(sub)) {
				continue // the sub-query matches nothing anywhere
			}
			subAnswers := answers(sub, f)
			if len(subAnswers) == 0 {
				continue // unsatisfiable node combination
			}
			got := answers(super, f)
			okay := false
			for _, n := range got {
				if n == want {
					okay = true
				}
			}
			if !okay {
				t.Fatalf("iter %d: mapping exists but containment fails semantically\nsuper = %s\nsub = %s",
					i, super, sub)
			}
		}
	}
	if found == 0 {
		t.Fatal("no contained pairs generated; test exercised nothing")
	}
}

func flattenConds(p *pattern.Pattern) []pattern.Condition {
	var out []pattern.Condition
	p.Walk(func(n *pattern.Node) { out = append(out, n.Conds...) })
	return out
}

func TestVerifyChecksConditions(t *testing.T) {
	p := mp("a*/b(@p<100)")
	q := mp("a*/b(@p<50)")
	m := FindMapping(p, q)
	if m == nil || !Verify(p, q, m) {
		t.Fatal("mapping over entailing conditions should verify")
	}
	// Forged mapping against non-entailing conditions must fail Verify.
	r := mp("a*/b(@p<200)")
	forged := Mapping{q.Root: r.Root, q.Root.Children[0]: r.Root.Children[0]}
	if Verify(q, r, forged) {
		t.Error("Verify accepted a mapping violating entailment")
	}
}
