package chase_test

// Cross-checks of plan-based augmentation against the per-call chase in
// internal/oracle. They live in the external test package because oracle
// imports chase.

import (
	"fmt"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// planCases are (query, constraint-set) pairs spanning the augmentation
// features: plain child/desc witnesses, co-occurrence, chained witness
// growth, coverage pruning on deep sets, and cyclic sets kept shallow.
var planCases = []struct {
	name  string
	query string
	cons  []ics.Constraint
}{
	{"fig2j", "Articles/Article*[//Paragraph, /Section//Paragraph]",
		[]ics.Constraint{ics.Desc("Section", "Paragraph")}},
	{"co", "Organization*[/Employee/Project, /PermEmp/DBproject]",
		[]ics.Constraint{ics.Co("PermEmp", "Employee"), ics.Co("DBproject", "Project")}},
	{"chain", "a*[/b, /c]",
		[]ics.Constraint{ics.Child("a", "b"), ics.Child("b", "c"), ics.Child("c", "d")}},
	{"prune", "a*/b",
		[]ics.Constraint{ics.Child("a", "b"), ics.Desc("a", "c"), ics.Child("b", "c")}},
	{"cyclic", "a*/b",
		[]ics.Constraint{ics.Child("a", "b"), ics.Child("b", "a")}},
	{"mixed", "r*[/a[/b], //c]",
		[]ics.Constraint{ics.Child("a", "x"), ics.Desc("c", "y"), ics.Co("b", "c"), ics.Child("c", "z")}},
	{"empty", "a*/b", nil},
}

// dump serializes everything augmentation can touch, so equal dumps mean
// the plan reproduced the per-call chase verbatim (order included).
func dump(p *pattern.Pattern) string {
	var out string
	var rec func(n *pattern.Node)
	rec = func(n *pattern.Node) {
		out += fmt.Sprintf("%v%s{%v|%v}", n.Edge, n.Type, n.Extra, n.TempExtra)
		if n.Temp {
			out += "~"
		}
		out += "("
		for _, c := range n.Children {
			rec(c)
		}
		out += ")"
	}
	rec(p.Root)
	return out
}

func TestPlanAugmentMatchesPerCall(t *testing.T) {
	for _, tc := range planCases {
		t.Run(tc.name, func(t *testing.T) {
			cs := ics.NewSet(tc.cons...).Closure()
			ref := pattern.MustParse(tc.query)
			refAdded := oracle.Augment(ref, cs)

			pl := chase.Compile(cs)
			got := pattern.MustParse(tc.query)
			gotAdded := pl.Augment(got)

			if refAdded != gotAdded {
				t.Fatalf("plan added %d nodes, per-call added %d", gotAdded, refAdded)
			}
			if d, r := dump(got), dump(ref); d != r {
				t.Fatalf("plan output differs\n plan: %s\n call: %s", d, r)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("plan output invalid: %v", err)
			}
			// Idempotent: a second pass over already-augmented input is a
			// no-op, structurally too.
			if extra := pl.Augment(got); extra != 0 {
				t.Errorf("re-augmenting added %d nodes", extra)
			}
			if d := dump(got); d != dump(ref) {
				t.Errorf("re-augmenting changed the pattern: %s", d)
			}
		})
	}
}

func TestPlanWantedMatchesPerCall(t *testing.T) {
	for _, tc := range planCases {
		t.Run(tc.name, func(t *testing.T) {
			cs := ics.NewSet(tc.cons...).Closure()
			base := pattern.MustParse(tc.query).TypeSet()
			ref := chase.WantedWitnessTypes(cs, base)
			got := chase.Compile(cs).Wanted(base)
			if len(ref) != len(got) {
				t.Fatalf("wanted = %v, per-call %v", got, ref)
			}
			for ty := range ref {
				if !got[ty] {
					t.Fatalf("wanted missing %q: got %v, want %v", ty, got, ref)
				}
			}
		})
	}
}

func TestRegistryFingerprintIsolation(t *testing.T) {
	// Same types, different constraints: the plans must not alias.
	reg := chase.NewRegistry(8)
	a := ics.NewSet(ics.Child("a", "b")).Closure()
	b := ics.NewSet(ics.Desc("a", "b")).Closure()
	pa, pb := reg.PlanFor(a), reg.PlanFor(b)
	if pa == pb {
		t.Fatal("distinct constraint sets shared a plan")
	}
	if pa.Fingerprint() == pb.Fingerprint() {
		t.Fatalf("distinct constraint sets shared fingerprint %q", pa.Fingerprint())
	}
	// Each plan must still agree with its own per-call oracle, and the two
	// outputs must differ (a child witness vs a descendant witness).
	qa := pattern.MustParse("a*//b")
	pa.Augment(qa)
	refA := pattern.MustParse("a*//b")
	oracle.Augment(refA, a)
	if dump(qa) != dump(refA) {
		t.Errorf("child plan diverged from oracle:\n plan: %s\n call: %s", dump(qa), dump(refA))
	}
	qb := pattern.MustParse("a*//b")
	pb.Augment(qb)
	refB := pattern.MustParse("a*//b")
	oracle.Augment(refB, b)
	if dump(qb) != dump(refB) {
		t.Errorf("desc plan diverged from oracle:\n plan: %s\n call: %s", dump(qb), dump(refB))
	}
	if dump(qa) == dump(qb) {
		t.Error("plans for distinct constraint sets produced identical augmentations")
	}
}
