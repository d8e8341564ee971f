package acim

import (
	"math/rand"
	"testing"

	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

func mp(src string) *pattern.Pattern { return pattern.MustParse(src) }

// The Figure 2 queries used by Section 3.3 and Section 5.
var (
	fig2a = "Articles/Article*[/Title, //Paragraph, /Section//Paragraph]"
	fig2b = "Articles/Article*[//Paragraph, /Section//Paragraph]"
	fig2c = "Articles/Article*/Section//Paragraph"
	fig2d = "Articles/Article*[//Paragraph, /Section]"
	fig2e = "Articles/Article*/Section"
	fig2f = "Organization*[/Employee/Project, /PermEmp/DBproject]"
	fig2g = "Organization*/PermEmp/DBproject"
)

func TestPaperSection33FirstExample(t *testing.T) {
	// Figure 2(a) + "Article -> Title": the Title node is redundant, and
	// constraint-independent reasoning then folds //Paragraph into the
	// Section branch; further, nothing else applies: minimal is 2(c).
	cs := ics.NewSet(ics.Child("Article", "Title"))
	got := Minimize(mp(fig2a), cs)
	if !pattern.Isomorphic(got, mp(fig2c)) {
		t.Errorf("ACIM(fig2a, Article->Title) = %s, want %s", got, fig2c)
	}
}

func TestPaperSection33SectionParagraph(t *testing.T) {
	// Figure 2(b) + "Section => Paragraph" must reach 2(e) — the example
	// the paper uses to show that chase-then-CIM without temporaries gets
	// stuck at 2(c) (Section 5.1), while ACIM does not.
	cs := ics.NewSet(ics.Desc("Section", "Paragraph"))
	got := Minimize(mp(fig2b), cs)
	if !pattern.Isomorphic(got, mp(fig2e)) {
		t.Errorf("ACIM(fig2b, Section=>Paragraph) = %s, want %s", got, fig2e)
	}
}

func TestPaperSection33FromD(t *testing.T) {
	// Figure 2(d) is minimal without ICs; with Section => Paragraph the
	// query augments (an extra Paragraph under Section) and minimizes to
	// 2(e).
	cs := ics.NewSet(ics.Desc("Section", "Paragraph"))
	if got := Minimize(mp(fig2d), ics.NewSet()); !pattern.Isomorphic(got, mp(fig2d)) {
		t.Errorf("fig2d shrank without ICs: %s", got)
	}
	got := Minimize(mp(fig2d), cs)
	if !pattern.Isomorphic(got, mp(fig2e)) {
		t.Errorf("ACIM(fig2d, Section=>Paragraph) = %s, want %s", got, fig2e)
	}
}

func TestPaperSection33CoOccurrence(t *testing.T) {
	// Figure 2(f) + PermEmp~Employee, DBproject~Project = Figure 2(g).
	cs := ics.NewSet(ics.Co("PermEmp", "Employee"), ics.Co("DBproject", "Project"))
	got := Minimize(mp(fig2f), cs)
	if !pattern.Isomorphic(got, mp(fig2g)) {
		t.Errorf("ACIM(fig2f, co-occurrence) = %s, want %s", got, fig2g)
	}
}

func TestPaperFullSequenceAtoE(t *testing.T) {
	// With both constraints, 2(a) goes all the way to 2(e).
	cs := ics.NewSet(
		ics.Child("Article", "Title"),
		ics.Desc("Section", "Paragraph"),
	)
	got := Minimize(mp(fig2a), cs)
	if !pattern.Isomorphic(got, mp(fig2e)) {
		t.Errorf("ACIM(fig2a, both ICs) = %s, want %s", got, fig2e)
	}
}

func TestBookPublisherIntro(t *testing.T) {
	// The introduction's example: "find title and author of books that
	// have a publisher" + "every book has a publisher" drops the publisher
	// condition.
	q := mp("Book*[/Title, /Author, /Publisher]")
	cs := ics.NewSet(ics.Child("Book", "Publisher"))
	got := Minimize(q, cs)
	want := mp("Book*[/Title, /Author]")
	if !pattern.Isomorphic(got, want) {
		t.Errorf("ACIM = %s, want %s", got, want)
	}
}

func TestNoConstraintsEqualsCIM(t *testing.T) {
	q := mp("OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]")
	got := Minimize(q, ics.NewSet())
	want := mp("OrgUnit*/Dept/Researcher//DBProject")
	if !pattern.Isomorphic(got, want) {
		t.Errorf("ACIM with no ICs = %s, want %s", got, want)
	}
}

func TestChildConstraintDoesNotRemoveDChildWithChildren(t *testing.T) {
	// a -> b guarantees a bare b child; it cannot discharge b[/c].
	q := mp("a*/b/c")
	cs := ics.NewSet(ics.Child("a", "b"))
	got := Minimize(q, cs)
	if !pattern.Isomorphic(got, q) {
		t.Errorf("ACIM removed constrained subtree: %s", got)
	}
}

func TestDescConstraintDoesNotRemoveCChild(t *testing.T) {
	// a => b guarantees a descendant, which cannot satisfy a c-child
	// requirement.
	q := mp("a*/b")
	cs := ics.NewSet(ics.Desc("a", "b"))
	got := Minimize(q, cs)
	if !pattern.Isomorphic(got, q) {
		t.Errorf("ACIM removed c-child using a descendant constraint: %s", got)
	}
	// But the d-child version is removable.
	q2 := mp("a*//b")
	got2 := Minimize(q2, cs)
	if !pattern.Isomorphic(got2, mp("a*")) {
		t.Errorf("ACIM kept removable d-child: %s", got2)
	}
}

func TestStatsPopulated(t *testing.T) {
	q := mp("a*[//b, //b]")
	cs := ics.NewSet(ics.Desc("a", "b"))
	got, st := MinimizeWithStats(q, cs)
	if !pattern.Isomorphic(got, mp("a*")) {
		t.Fatalf("result = %s", got)
	}
	if st.Augmented == 0 {
		t.Errorf("augmentation stats wrong: %+v", st)
	}
	if st.Removed != 2 || st.Tests < 2 {
		t.Errorf("CIM stats wrong: %+v", st)
	}
	if st.TotalTime <= 0 {
		t.Errorf("TotalTime not set: %+v", st)
	}
}

// randomSetup builds a random query and a random acyclic constraint set
// over the query's type alphabet.
func randomSetup(rng *rand.Rand, qSize, nCons int) (*pattern.Pattern, *ics.Set) {
	types := []pattern.Type{"t0", "t1", "t2", "t3", "t4", "t5"}
	root := pattern.NewNode(types[rng.Intn(3)])
	nodes := []*pattern.Node{root}
	for len(nodes) < qSize {
		parent := nodes[rng.Intn(len(nodes))]
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		nodes = append(nodes, parent.AddChild(kind, pattern.NewNode(types[rng.Intn(len(types))])))
	}
	nodes[rng.Intn(len(nodes))].Star = true
	cs := ics.NewSet()
	for i := 0; i < nCons; i++ {
		from := rng.Intn(len(types) - 1)
		to := from + 1 + rng.Intn(len(types)-from-1)
		switch rng.Intn(3) {
		case 0:
			cs.Add(ics.Child(types[from], types[to]))
		case 1:
			cs.Add(ics.Desc(types[from], types[to]))
		default:
			cs.Add(ics.Co(types[from], types[to]))
		}
	}
	return pattern.New(root), cs
}

func TestACIMSemanticEquivalence(t *testing.T) {
	// The minimized query answers exactly like the original on databases
	// satisfying the constraints.
	rng := rand.New(rand.NewSource(31))
	types := []pattern.Type{"t0", "t1", "t2", "t3", "t4", "t5"}
	for i := 0; i < 80; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(7), 1+rng.Intn(4))
		min := Minimize(q, cs)
		if min.Size() > q.Size() {
			t.Fatalf("iter %d: ACIM grew the query", i)
		}
		for trial := 0; trial < 6; trial++ {
			f := randomForest(rng, types, 1+rng.Intn(12))
			if err := data.Repair(f, cs); err != nil {
				t.Fatalf("iter %d: repair: %v", i, err)
			}
			a := oracle.BindingsMap(q, f)[q.OutputNode()]
			b := oracle.BindingsMap(min, f)[min.OutputNode()]
			if len(a) != len(b) {
				t.Fatalf("iter %d trial %d: %d vs %d answers\nq   = %s\nmin = %s\ncs  = %s\ndata:\n%s",
					i, trial, len(a), len(b), q, min, cs, f)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("iter %d: answer %d differs", i, j)
				}
			}
		}
	}
}

func TestACIMEquivalentUnderAndIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 120; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(8), rng.Intn(5))
		min := Minimize(q, cs)
		if !EquivalentUnder(q, min, cs) {
			t.Fatalf("iter %d: ACIM output not equivalent under ICs\nq = %s\nmin = %s\ncs = %s",
				i, q, min, cs)
		}
		again := Minimize(min, cs)
		if !pattern.Isomorphic(again, min) {
			t.Fatalf("iter %d: ACIM not idempotent: %s then %s", i, min, again)
		}
	}
}

func randomForest(rng *rand.Rand, types []pattern.Type, size int) *data.Forest {
	var roots []*data.Node
	var all []*data.Node
	for len(all) < size {
		if len(all) == 0 || rng.Intn(6) == 0 {
			r := data.NewNode(types[rng.Intn(len(types))])
			roots = append(roots, r)
			all = append(all, r)
		} else {
			all = append(all, all[rng.Intn(len(all))].Child(types[rng.Intn(len(types))]))
		}
	}
	return data.NewForest(roots...)
}
