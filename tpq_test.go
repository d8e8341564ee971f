package tpq

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	// The README's quickstart, kept honest by this test.
	q := MustParse("OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]")
	min := Minimize(q)
	if min.Size() != 4 {
		t.Fatalf("Minimize left %d nodes, want 4", min.Size())
	}
	if !Equivalent(q, min) {
		t.Error("minimized query not equivalent")
	}
	want := MustParse("OrgUnit*/Dept/Researcher//DBProject")
	if !Isomorphic(min, want) {
		t.Errorf("min = %s, want %s", min, want)
	}
}

func TestFacadeConstraints(t *testing.T) {
	q := MustParse("Book*[/Title, /Author, /Publisher]")
	cs, err := ParseConstraints("Book -> Publisher")
	if err != nil {
		t.Fatal(err)
	}
	min := MinimizeUnderConstraints(q, cs)
	if !Isomorphic(min, MustParse("Book*[/Title, /Author]")) {
		t.Errorf("min = %s", min)
	}
	if !EquivalentUnder(q, min, cs) {
		t.Error("not equivalent under constraints")
	}
	if Equivalent(q, min) {
		t.Error("should differ without constraints")
	}
	if !ContainsUnder(min, q, cs) || !ContainsUnder(q, min, cs) {
		t.Error("ContainsUnder disagrees with EquivalentUnder")
	}
}

func TestFacadeConstraintConstructors(t *testing.T) {
	cs := NewConstraints(
		RequiredChild("Book", "Title"),
		RequiredDescendant("Book", "LastName"),
		CoOccurrence("Employee", "Person"),
	)
	if cs.Len() != 3 {
		t.Fatalf("Len = %d", cs.Len())
	}
	c, err := ParseConstraint("A => B")
	if err != nil || c != RequiredDescendant("A", "B") {
		t.Errorf("ParseConstraint: %v %v", c, err)
	}
}

func TestFacadeMatch(t *testing.T) {
	f, err := ParseXML(strings.NewReader(
		"<Library><Book><Title/></Book><Book><Title/><Author/></Book></Library>"))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("Book*[/Title, /Author]")
	if got := MatchCount(q, f); got != 1 {
		t.Errorf("MatchCount = %d, want 1", got)
	}
	answers := Match(MustParse("Book*/Title"), f)
	if len(answers) != 2 {
		t.Errorf("answers = %d, want 2", len(answers))
	}
}

func TestFacadeForestBuilding(t *testing.T) {
	root := NewDataNode("Org")
	root.Child("Employee", "Person")
	f := NewForest(root)
	if got := MatchCount(MustParse("Org/Person*"), f); got != 1 {
		t.Errorf("multi-typed node not matched: %d", got)
	}
}

func TestFacadeSchema(t *testing.T) {
	s := NewSchema()
	s.Declare("Book", Required("Title"))
	s.Declare("Title")
	cs := s.InferConstraints()
	q := MustParse("Book*/Title")
	min := MinimizeUnderConstraints(q, cs)
	if min.Size() != 1 {
		t.Errorf("schema-driven minimization left %d nodes", min.Size())
	}
}

func TestFacadeRepairAndSatisfies(t *testing.T) {
	f := NewForest(NewDataNode("Book"))
	cs := NewConstraints(RequiredChild("Book", "Title"))
	if SatisfiesConstraints(f, cs) {
		t.Error("unsatisfied constraints reported satisfied")
	}
	if err := RepairConstraints(f, cs); err != nil {
		t.Fatal(err)
	}
	if !SatisfiesConstraints(f, cs) {
		t.Error("repair did not satisfy constraints")
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := GenerateQuery(rng, 12, 3)
	if q.Size() != 12 || q.Validate() != nil {
		t.Errorf("GenerateQuery broken: %v", q)
	}
	f, err := GenerateForest(rng, 30, []Type{"a", "b"}, nil)
	if err != nil || f.Size() != 30 {
		t.Errorf("GenerateForest: %v size %d", err, f.Size())
	}
	cs := NewConstraints(RequiredChild("a", "b"))
	f2, err := GenerateForest(rng, 10, []Type{"a"}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesConstraints(f2, cs) {
		t.Error("constrained forest violates constraints")
	}
}

func TestMinimizationSpeedsUpMatching(t *testing.T) {
	// The motivation of the whole paper: the minimized query returns the
	// same answers while inspecting fewer pattern nodes.
	rng := rand.New(rand.NewSource(9))
	q := MustParse("a*[//b//c, //b//c, //b[/x, //c]]")
	min := Minimize(q)
	if min.Size() >= q.Size() {
		t.Fatalf("no reduction: %s", min)
	}
	f, err := GenerateForest(rng, 300, []Type{"a", "b", "c", "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Match(q, f), Match(min, f)
	if len(a) != len(b) {
		t.Fatalf("answers differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("answer sets differ")
		}
	}
}

func TestFacadeCountEmbeddings(t *testing.T) {
	root := NewDataNode("a")
	root.Child("b")
	root.Child("b")
	f := NewForest(root)
	q := MustParse("a*[/b, /b]")
	if got := CountEmbeddings(q, f); got.Int64() != 4 {
		t.Errorf("CountEmbeddings = %s, want 4", got)
	}
	min := Minimize(q)
	if got := CountEmbeddings(min, f); got.Int64() != 2 {
		t.Errorf("minimized CountEmbeddings = %s, want 2", got)
	}
	// Same answers, fewer embeddings: the motivation in one assertion.
	if MatchCount(q, f) != MatchCount(min, f) {
		t.Error("answers changed")
	}
}

// TestFacadeEdgeKindRule pins one reading of an edge kind that is neither
// Child nor Descendant, which a hand-built pattern may carry: every layer
// reads it as a d-edge. The printer, the canonical form, containment, the
// embedding count and the match engine must agree.
func TestFacadeEdgeKindRule(t *testing.T) {
	p := MustParse("a*[/b]")
	p.Root.Children[0].Edge = 5
	root := NewDataNode("a")
	root.Child("c").Child("b")
	f := NewForest(root)
	if got := p.String(); got != "a*//b" {
		t.Errorf("String = %q, want a*//b", got)
	}
	if !Equivalent(p, MustParse(p.String())) {
		t.Error("the pattern is not equivalent to the parse of its own printing")
	}
	if got := CountEmbeddings(p, f); got.Int64() != 1 {
		t.Errorf("CountEmbeddings = %s, want 1", got)
	}
	if got := MatchCount(p, f); got != 1 {
		t.Errorf("MatchCount = %d, want 1", got)
	}
}

func TestFacadeForbiddenConstraints(t *testing.T) {
	q := MustParse("Section*//Footnote")
	cs := NewConstraints(ForbidDescendant("Section", "Footnote"))
	if !Unsatisfiable(q, cs) {
		t.Error("query violating a forbidden form not flagged")
	}
	if Unsatisfiable(MustParse("Section*//Paragraph"), cs) {
		t.Error("satisfiable query flagged")
	}
	c, err := ParseConstraint("Section !=> Footnote")
	if err != nil || c != ForbidDescendant("Section", "Footnote") {
		t.Errorf("ParseConstraint: %v %v", c, err)
	}
}

// Required/Optional are re-exported for schema building; keep them working.
func TestSchemaHelpers(t *testing.T) {
	if Required("x").MinOccurs != 1 || Optional("x").MinOccurs != 0 {
		t.Error("schema child helpers wrong")
	}
}

// TestNilConstraints calls every facade function that takes a
// *Constraints with nil, which means "no constraints" everywhere: none
// may panic, and each must answer as under the empty set. It is also the
// facade's test of MinimizeDisjunction: or(a*/b, a*//b) keeps only the
// disjunct that absorbs the other.
func TestNilConstraints(t *testing.T) {
	q := MustParse("a*[/b, //b]")
	want := MustParse("a*/b")
	if got := MinimizeUnderConstraints(q, nil); !Isomorphic(got, want) {
		t.Errorf("MinimizeUnderConstraints = %s, want %s", got, want)
	}
	if got, rep := MinimizeReport(q, nil); !Isomorphic(got, want) || rep.Unsatisfiable {
		t.Errorf("MinimizeReport = %s %+v, want %s", got, rep, want)
	}
	if got := MinimizeBatch([]*Pattern{q, want}, nil, 2); len(got) != 2 || !Isomorphic(got[0], want) || !Isomorphic(got[1], want) {
		t.Errorf("MinimizeBatch = %v, want [%s %s]", got, want, want)
	}
	d, err := ParseDisjunctive("or(a*/b, a*//b)")
	if err != nil {
		t.Fatal(err)
	}
	if got := MinimizeDisjunction(d, nil); got.String() != "a*//b" {
		t.Errorf("MinimizeDisjunction(%s) = %s, want a*//b", d, got)
	}
	if Unsatisfiable(q, nil) {
		t.Error("Unsatisfiable under no constraints")
	}
	if !ContainsUnder(MustParse("a*//b"), want, nil) || ContainsUnder(want, MustParse("a*//b"), nil) {
		t.Error("ContainsUnder disagrees with Contains")
	}
	if !EquivalentUnder(q, want, nil) {
		t.Errorf("EquivalentUnder(%s, %s) = false", q, want)
	}
	f := NewForest(NewDataNode("a"))
	if !SatisfiesConstraints(f, nil) {
		t.Error("a forest violates no constraints")
	}
	if err := RepairConstraints(f, nil); err != nil || f.Size() != 1 {
		t.Errorf("RepairConstraints: %v, forest size %d", err, f.Size())
	}
	if _, err := GenerateForest(rand.New(rand.NewSource(1)), 10, []Type{"a", "b"}, nil); err != nil {
		t.Errorf("GenerateForest: %v", err)
	}
	if got := NewMinimizer(MinimizerOptions{}).Minimize(q); !Isomorphic(got, want) {
		t.Errorf("Minimizer.Minimize = %s, want %s", got, want)
	}
}
