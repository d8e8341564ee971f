package acim

import (
	"testing"

	"tpq/internal/chase"
	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/oracle"
)

func TestForbidConstraintParsing(t *testing.T) {
	cs := ics.MustParseSet("Leaf !-> Section", "Title !=> Paragraph")
	if !cs.HasForbidChild("Leaf", "Section") {
		t.Error("!-> not parsed")
	}
	if !cs.HasForbidDesc("Title", "Paragraph") {
		t.Error("!=> not parsed")
	}
	// Round trip via String.
	for _, c := range cs.Constraints() {
		if back := ics.MustParse(c.String()); back != c {
			t.Errorf("round trip of %v gave %v", c, back)
		}
	}
}

func TestForbidClosure(t *testing.T) {
	closed := ics.NewSet(
		ics.ForbidDesc("a", "b"),
		ics.Co("a2", "a"),
		ics.Co("b2", "b"),
	).Closure()
	if !closed.HasForbidChild("a", "b") {
		t.Error("!=> should imply !->")
	}
	if !closed.HasForbidDesc("a2", "b") {
		t.Error("forbidden form not inherited by subtype of the source")
	}
	if !closed.HasForbidDesc("a", "b2") {
		t.Error("forbidden form not extended to subtype of the target")
	}
	if !closed.HasForbidDesc("a2", "b2") {
		t.Error("combined subtype propagation missing")
	}
}

func TestEmptyTypes(t *testing.T) {
	cases := []struct {
		name  string
		cs    []ics.Constraint
		empty []string
		alive []string
	}{
		{
			"direct contradiction",
			[]ics.Constraint{ics.Child("a", "b"), ics.ForbidChild("a", "b")},
			[]string{"a"}, []string{"b"},
		},
		{
			"required desc vs forbidden desc",
			[]ics.Constraint{ics.Desc("a", "b"), ics.ForbidDesc("a", "b")},
			[]string{"a"}, []string{"b"},
		},
		{
			"requirement of an empty type propagates",
			[]ics.Constraint{
				ics.Child("a", "b"), ics.ForbidChild("a", "b"), // a empty
				ics.Child("c", "a"), // c requires a
				ics.Co("d", "c"),    // d is a c
			},
			[]string{"a", "c", "d"}, []string{"b"},
		},
		{
			"no contradiction",
			[]ics.Constraint{ics.Child("a", "b"), ics.ForbidChild("a", "c")},
			nil, []string{"a", "b", "c"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			empty := ics.NewSet(c.cs...).Closure().EmptyTypes()
			for _, e := range c.empty {
				if !empty[ics.MustParse(e+" ~ zzz").From] {
					t.Errorf("%s should be empty (got %v)", e, empty)
				}
			}
			for _, a := range c.alive {
				if empty[ics.MustParse(a+" ~ zzz").From] {
					t.Errorf("%s should not be empty", a)
				}
			}
		})
	}
}

// TestUnsatisfiableUnder runs one table against both the production check
// (the chase plan's rows) and its reference, internal/oracle's pairwise
// UnsatisfiableUnder.
func TestUnsatisfiableUnder(t *testing.T) {
	cases := []struct {
		name  string
		q     string
		cs    []ics.Constraint
		unsat bool
	}{
		{
			"forbidden c-child in the query",
			"a*/b", []ics.Constraint{ics.ForbidChild("a", "b")}, true,
		},
		{
			"forbidden descendant at distance",
			"a*/x//b", []ics.Constraint{ics.ForbidDesc("a", "b")}, true,
		},
		{
			"forbidden child does not fire at distance",
			"a*/x/b", []ics.Constraint{ics.ForbidChild("a", "b")}, false,
		},
		{
			"forbidden descendant fires on a c-child too",
			"a*/b", []ics.Constraint{ics.ForbidDesc("a", "b")}, true,
		},
		{
			"empty type in the query",
			"x*//a", []ics.Constraint{ics.Child("a", "b"), ics.ForbidChild("a", "b")}, true,
		},
		{
			"conflict through the chase",
			// x requires a b descendant; w forbids b below it.
			"w*//x",
			[]ics.Constraint{ics.Desc("x", "b"), ics.ForbidDesc("w", "b")},
			true,
		},
		{
			"conflict through co-occurrence",
			"w*/e",
			[]ics.Constraint{ics.Co("e", "b"), ics.ForbidChild("w", "b")},
			true,
		},
		{
			"satisfiable",
			"a*[/b, //c]", []ics.Constraint{ics.ForbidChild("b", "c")}, false,
		},
		{
			"no constraints",
			"a*/b", nil, false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := ics.NewSet(c.cs...)
			if got := chase.PlanFor(cs).Unsatisfiable(mp(c.q)); got != c.unsat {
				t.Errorf("plan: Unsatisfiable(%s) under %v = %v, want %v", c.q, c.cs, got, c.unsat)
			}
			if got := oracle.UnsatisfiableUnder(mp(c.q), cs); got != c.unsat {
				t.Errorf("oracle: UnsatisfiableUnder(%s, %v) = %v, want %v", c.q, c.cs, got, c.unsat)
			}
		})
	}
}

func TestUnsatQueriesReallyMatchNothing(t *testing.T) {
	// Soundness spot-check: a forest satisfying the constraints gives no
	// answers for a query flagged unsatisfiable.
	q := mp("a*/x//b")
	cs := ics.NewSet(ics.ForbidDesc("a", "b"))
	if !chase.PlanFor(cs).Unsatisfiable(q) {
		t.Fatal("expected unsatisfiable")
	}
	// Build a forest with a, x, b placed legally: b never below a.
	root := data.NewNode("r")
	a := root.Child("a")
	a.Child("x")
	root.Child("b") // b is a sibling subtree, not below a
	f := data.NewForest(root)
	if len(data.Violations(f, cs.Closure())) != 0 {
		t.Skip("test forest violates the constraint set")
	}
	if got := oracle.BindingsMap(q, f)[q.OutputNode()]; len(got) != 0 {
		t.Errorf("unsatisfiable query matched %d nodes", len(got))
	}
}
