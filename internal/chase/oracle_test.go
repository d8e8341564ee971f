package chase_test

// Plan-based augmentation, read through internal/oracle's renderer, and
// its cross-checks against the per-call chase there. They live in the
// external test package because oracle imports chase.

import (
	"strings"
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

// augment renders the plan's augmentation of query under cons, and
// checks the query was left as it was.
func augment(t *testing.T, query string, cons ...ics.Constraint) (string, int) {
	t.Helper()
	q := pattern.MustParse(query)
	before := q.Canonical()
	s, added := chase.Compile(ics.NewSet(cons...)).Augment(q, nil)
	defer s.Release()
	if q.Canonical() != before {
		t.Errorf("augmenting changed the query: %s", q)
	}
	return oracle.RenderLayout(s), added
}

func TestPlanAugmentMatchesPerCall(t *testing.T) {
	for _, tc := range planCases {
		t.Run(tc.name, func(t *testing.T) {
			cs := ics.NewSet(tc.cons...).Closure()
			ref := pattern.MustParse(tc.query)
			marks := oracle.Augment(ref, cs)
			if err := ref.Validate(); err != nil {
				t.Errorf("per-call output invalid: %v", err)
			}
			got, gotAdded := augment(t, tc.query, tc.cons...)
			if refAdded := len(marks.Nodes); refAdded != gotAdded {
				t.Fatalf("plan added %d nodes, per-call added %d", gotAdded, refAdded)
			}
			if want := oracle.RenderMarked(ref, marks); got != want {
				t.Fatalf("plan output differs\n plan: %s\n call: %s", got, want)
			}
		})
	}
}

func TestAugmentAddsWitnesses(t *testing.T) {
	// Figure 2(b) + Section => Paragraph gives Figure 2(j): one extra
	// temporary Paragraph d-child under Section, after its own subtree.
	got, added := augment(t, "Articles/Article*[//Paragraph, /Section//Paragraph]", ics.Desc("Section", "Paragraph"))
	if want := "Articles(/Article*(//Paragraph,/Section(//Paragraph,//Paragraph~)))"; got != want || added != 1 {
		t.Errorf("augmented %s (%d added), want %s (1)", got, added, want)
	}
}

func TestAugmentSkipsAbsentTargetTypes(t *testing.T) {
	// Constraint targets that do not occur in the original query are not
	// applied (restriction 2 of Section 5.2).
	got, added := augment(t, "a*/b", ics.Child("a", "zzz"), ics.Desc("b", "yyy"), ics.Co("a", "www"))
	if got != "a*(/b)" || added != 0 {
		t.Errorf("augmented %s (%d added) for absent types", got, added)
	}
}

func TestAugmentCoOccurrence(t *testing.T) {
	// The associated types are capabilities of the layout's ordinals
	// only: the query itself never gains them.
	got, _ := augment(t, "Organization*[/Employee/Project, /PermEmp/DBproject]",
		ics.Co("PermEmp", "Employee"), ics.Co("DBproject", "Project"))
	if want := "Organization*(/Employee(/Project),/PermEmp+{Employee}(/DBproject+{Project}))"; got != want {
		t.Errorf("augmented %s, want %s", got, want)
	}
}

func TestAugmentChasesWitnesses(t *testing.T) {
	// Witnesses are chased too: the b witness under a stands for a node
	// the constraints guarantee, so it must exhibit its own guaranteed
	// c child — otherwise a query branch b/c could never map onto it and
	// ACIM misses redundancies (the difffuzz agreement/minimality bugs).
	got, _ := augment(t, "a*[/b, /c]", ics.Child("a", "b"), ics.Child("b", "c"))
	if !strings.Contains(got, "/b~(/c~)") {
		t.Errorf("augmented %s: the b witness was not given its guaranteed c child", got)
	}
}

func TestAugmentDeepChainStaysLinear(t *testing.T) {
	// On a closed chain t0 -> t1 -> ... -> t19 every DescTargets(t0)
	// contains all later types; spawning a chain per transitive target
	// unfolds every descending type sequence — exponential, and it hung
	// the Section 6 bench workloads. WitnessTargets prunes descendant
	// targets already required below another spawned witness, so the
	// chain is materialized once per node.
	cons := make([]ics.Constraint, 0, 19)
	types := make([]pattern.Type, 20)
	for i := range types {
		types[i] = pattern.Type(string(rune('a'+i/10)) + string(rune('a'+i%10)))
	}
	for i := 0; i+1 < len(types); i++ {
		cons = append(cons, ics.Child(types[i], types[i+1]))
	}
	s, added := chase.Compile(ics.NewSet(cons...).Closure()).Augment(pattern.MustParse("aa*//"+string(types[len(types)-1])), nil)
	defer s.Release()
	if added == 0 {
		t.Fatal("chain augmentation added nothing")
	}
	if n := len(s.Nodes); n > 3*len(types) {
		t.Errorf("augmented size %d on a %d-type chain; want linear", n, len(types))
	}
}

func TestAugmentCyclicStaysShallow(t *testing.T) {
	// On a cyclic required set — satisfiable only by infinite databases —
	// witness chasing would not terminate, so witnesses stay one level
	// deep (the sound under-approximation).
	got, _ := augment(t, "a*[/b, /c]", ics.Child("a", "b"), ics.Child("b", "c"), ics.Child("c", "a"))
	if strings.Contains(got, "~(") {
		t.Errorf("augmented %s: a witness has children despite cyclic constraints", got)
	}
}

func TestAugmentClosedSetCascade(t *testing.T) {
	// b ~ c and c -> d: a node of type b needs a d witness, via the
	// closure-derived b -> d. The co-occurrence target c is absent from
	// the query, so the type association b ~ c is not applied.
	got, _ := augment(t, "a*[/b, /d]", ics.Co("b", "c"), ics.Child("c", "d")) // Compile closes
	if !strings.Contains(got, "/b(/d~)") {
		t.Errorf("augmented %s: closure-derived witness missing, or b gained c", got)
	}
}

func TestAugmentEmptyInputs(t *testing.T) {
	if s, added := chase.Compile(ics.NewSet()).Augment(&pattern.Pattern{}, nil); added != 0 || len(s.Nodes) != 0 {
		t.Error("augmenting empty pattern added nodes")
	}
	if s, added := chase.Compile(nil).Augment(pattern.MustParse("a*"), nil); added != 0 || len(s.Nodes) != 1 {
		t.Error("nil constraint set added nodes")
	}
}

// TestAugmentSkipsDetachedOrdinals checks the layout the engine hands
// the chase after CDM: an ordinal whose node was detached is dropped, so
// the result is the augmentation of the query without it.
func TestAugmentSkipsDetachedOrdinals(t *testing.T) {
	cons := []ics.Constraint{ics.Desc("Section", "Paragraph"), ics.Child("Article", "Title")}
	q := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph, /Title]")
	pl := chase.Compile(ics.NewSet(cons...))
	s := chase.GetScratch(pl)
	defer s.Release()
	s.Flatten(q)
	q.Root.Children[0].Children[0].Detach() // the first //Paragraph
	added := s.Augment(nil)
	want, wantAdded := augment(t, q.String(), cons...)
	if got := oracle.RenderLayout(s); got != want || added != wantAdded {
		t.Errorf("augmented %s (%d added), want %s (%d)", got, added, want, wantAdded)
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
	render := func(pl *chase.Plan, cs *ics.Set) (got, want string) {
		s, _ := pl.Augment(pattern.MustParse("a*//b"), nil)
		defer s.Release()
		ref := pattern.MustParse("a*//b")
		return oracle.RenderLayout(s), oracle.RenderMarked(ref, oracle.Augment(ref, cs))
	}
	gotA, wantA := render(pa, a)
	if gotA != wantA {
		t.Errorf("child plan diverged from oracle:\n plan: %s\n call: %s", gotA, wantA)
	}
	gotB, wantB := render(pb, b)
	if gotB != wantB {
		t.Errorf("desc plan diverged from oracle:\n plan: %s\n call: %s", gotB, wantB)
	}
	if gotA == gotB {
		t.Error("plans for distinct constraint sets produced identical augmentations")
	}
}
