package acim

import (
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// checkMinimize runs ACIM on q under cs and checks the output is
// isomorphic to want, well formed, and free of augmentation residue: it
// carries no type the input lacks.
func checkMinimize(t *testing.T, q string, cs *ics.Set, want string) {
	t.Helper()
	in := mp(q)
	got := Minimize(in, cs)
	if !pattern.Isomorphic(got, mp(want)) {
		t.Errorf("Minimize(%s) = %s, want %s", q, got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("Minimize(%s): invalid output: %v", q, err)
	}
	types := in.TypeSet()
	for ty := range got.TypeSet() {
		if !types[ty] {
			t.Errorf("Minimize(%s): output %s carries type %q the input lacks", q, got, ty)
		}
	}
}

// TestVirtualMatchesPhysicalOnPaperExamples checks ACIM (which augments
// the query physically with the chase) reaches the expected minimum on
// the paper's constrained examples.
func TestVirtualMatchesPhysicalOnPaperExamples(t *testing.T) {
	cases := []struct {
		q    string
		cs   []ics.Constraint
		want string
	}{
		{
			fig2b,
			[]ics.Constraint{ics.Desc("Section", "Paragraph")},
			fig2e,
		},
		{
			fig2a,
			[]ics.Constraint{ics.Child("Article", "Title"), ics.Desc("Section", "Paragraph")},
			fig2e,
		},
		{
			fig2f,
			[]ics.Constraint{ics.Co("PermEmp", "Employee"), ics.Co("DBproject", "Project")},
			fig2g,
		},
		{
			"Book*[/Title, /Author, /Publisher]",
			[]ics.Constraint{ics.Child("Book", "Publisher")},
			"Book*[/Title, /Author]",
		},
	}
	for _, c := range cases {
		checkMinimize(t, c.q, ics.NewSet(c.cs...), c.want)
	}
}

// TestVirtualLeavesNoResidue checks that a query every branch of which
// the constraints imply minimizes to its output node alone, with no
// augmentation witness left in the result.
func TestVirtualLeavesNoResidue(t *testing.T) {
	cs := ics.NewSet(ics.Child("a", "b"), ics.Desc("a", "c"), ics.Co("b", "c"))
	checkMinimize(t, "a*[/b, //c]", cs.Closure(), "a*")
}

// TestVirtualNilConstraints checks ACIM with a nil constraint set is
// plain CIM.
func TestVirtualNilConstraints(t *testing.T) {
	checkMinimize(t, "a*[/b, /b]", nil, "a*/b")
}
