package cdm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/pattern"
)

func mp(src string) *pattern.Pattern { return pattern.MustParse(src) }

func TestPropagationRulesFigure4(t *testing.T) {
	d, c := pattern.Descendant, pattern.Child
	cases := []struct {
		edge pattern.EdgeKind
		in   Arg
		want Arg
	}{
		{d, Arg{SelfU, "t"}, Arg{AncU, "t"}},
		{d, Arg{SelfC, "t"}, Arg{AncC, "t"}},
		{d, Arg{AncU, "t"}, Arg{AncC, "t"}},
		{d, Arg{AncC, "t"}, Arg{AncC, "t"}},
		{d, Arg{ParU, "t"}, Arg{AncC, "t"}},
		{d, Arg{ParC, "t"}, Arg{AncC, "t"}},
		{c, Arg{SelfU, "t"}, Arg{ParU, "t"}},
		{c, Arg{SelfC, "t"}, Arg{ParC, "t"}},
		{c, Arg{AncU, "t"}, Arg{AncC, "t"}},
		{c, Arg{AncC, "t"}, Arg{AncC, "t"}},
		{c, Arg{ParU, "t"}, Arg{AncC, "t"}},
		{c, Arg{ParC, "t"}, Arg{AncC, "t"}},
	}
	for _, cse := range cases {
		if got := propagate(cse.edge, cse.in); got != cse.want {
			t.Errorf("propagate(%v, %v) = %v, want %v", cse.edge, cse.in, got, cse.want)
		}
	}
}

func TestInfoContentExample51(t *testing.T) {
	// Example 5.1 / Figure 5, step 1: the left branch t1 -/-> t2 -//-> t5
	// -/-> t6 labels as
	//	t6: t6        t5: ~t5, p t6        t2: ~t2, a ~t5, a ~t6
	//	t1: ~t1, p ~t2, ... (plus the other branches)
	q := mp("t1*[/t2//t5/t6, //t3//t7, /t4/t8]")
	labels := InfoContent(q)
	byType := map[pattern.Type]*pattern.Node{}
	q.Walk(func(n *pattern.Node) { byType[n.Type] = n })

	for ty, want := range map[pattern.Type]string{
		"t6": "t6",
		"t5": "~t5, p t6",
		"t2": "~t2, a ~t5, a ~t6",
		"t7": "t7",
		"t3": "~t3, a t7",
		"t8": "t8",
		"t4": "~t4, p t8",
		"t1": "~t1, p ~t2, p ~t4, a ~t3, a ~t5, a ~t6, a ~t7, a ~t8",
	} {
		got := labels[byType[ty]]
		if !sameArgs(got, want) {
			t.Errorf("info(%s) = %q, want %q", ty, got, want)
		}
	}
}

// sameArgs compares an Info against a comma-separated expectation,
// ignoring order.
func sameArgs(in Info, want string) bool {
	wantSet := map[string]bool{}
	for _, part := range strings.Split(want, ",") {
		wantSet[strings.TrimSpace(part)] = true
	}
	if len(wantSet) != len(in) {
		return false
	}
	for _, a := range in.Args() {
		if !wantSet[strings.TrimSpace(a.String())] {
			return false
		}
	}
	return true
}

func TestMinimizeExample52(t *testing.T) {
	// Example 5.2: with t4 -> t8, t3 => t7, t2 ~ t4 and t2 ~ t3, the t8,
	// t7, t4 and t3 nodes all fall away and the query reduces to
	// t1*/t2//t5/t6 (Figure 5, step 3).
	q := mp("t1*[/t2//t5/t6, //t3//t7, /t4/t8]")
	cs := ics.NewSet(
		ics.Child("t4", "t8"),
		ics.Desc("t3", "t7"),
		ics.Co("t2", "t4"),
		ics.Co("t2", "t3"),
	)
	clone := q.Clone()
	st := MinimizeInPlace(clone, cs)
	want := mp("t1*/t2//t5/t6")
	if !pattern.Isomorphic(clone, want) {
		t.Fatalf("CDM = %s, want %s", clone, want)
	}
	if st.Removed != 4 {
		t.Errorf("Removed = %d, want 4", st.Removed)
	}
}

func TestFourLocalRedundancyRules(t *testing.T) {
	cases := []struct {
		name string
		q    string
		cs   []ics.Constraint
		want string
	}{
		{
			"rule i: required child",
			"a*[/b, /c]", []ics.Constraint{ics.Child("a", "b")}, "a*/c",
		},
		{
			"rule ii: required descendant",
			"a*[//b, /c]", []ics.Constraint{ics.Desc("a", "b")}, "a*/c",
		},
		{
			"rule iii: sibling c-child co-occurrence",
			"a*[/b, /c]", []ics.Constraint{ics.Co("c", "b")}, "a*/c",
		},
		{
			"rule iv: descendant witness via co-occurrence",
			"a*[//b, /c/d]", []ics.Constraint{ics.Co("d", "b")}, "a*/c/d",
		},
		{
			"rule iv: descendant witness via required descendant",
			"a*[//b, //c/x]", []ics.Constraint{ics.Desc("c", "b")}, "a*//c/x",
		},
		{
			"rule i does not fire for d-children",
			"a*[//b/x, /c]", []ics.Constraint{ics.Child("a", "b")}, "a*[//b/x, /c]",
		},
		{
			"required descendant cannot remove a c-child",
			"a*[/b, /c]", []ics.Constraint{ics.Desc("a", "b")}, "a*[/b, /c]",
		},
		{
			"co-occurrence of a d-sibling cannot remove a c-child",
			"a*[/b, //c/x]", []ics.Constraint{ics.Co("c", "b")}, "a*[/b, //c/x]",
		},
		{
			"constrained leaves are not locally redundant",
			"a*[/b/x, /c]", []ics.Constraint{ics.Child("a", "b")}, "a*[/b/x, /c]",
		},
		{
			"cascade: child removal unconstrains the parent",
			"a*[/b/c, /d]", []ics.Constraint{ics.Child("b", "c"), ics.Co("d", "b")}, "a*/d",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Minimize(mp(c.q), ics.NewSet(c.cs...))
			if !pattern.Isomorphic(got, mp(c.want)) {
				t.Errorf("CDM(%s) = %s, want %s", c.q, got, c.want)
			}
		})
	}
}

func TestCDMFigure2bToE(t *testing.T) {
	// Figure 2(b) + Section => Paragraph. The Section 3.3 narrative (which
	// reasons with single direct IC rewrites) stops at 2(d) and needs ACIM
	// to reach 2(e); CDM's rule (iv) is stronger: once the Paragraph under
	// Section is pruned, the remaining //Paragraph d-child of Article is
	// itself locally redundant — Article has a Section descendant and
	// Section => Paragraph — so CDM alone reaches 2(e) here.
	q := mp("Articles/Article*[//Paragraph, /Section//Paragraph]")
	cs := ics.NewSet(ics.Desc("Section", "Paragraph"))
	got := Minimize(q, cs)
	want := mp("Articles/Article*/Section")
	if !pattern.Isomorphic(got, want) {
		t.Fatalf("CDM = %s, want %s (fig 2e)", got, want)
	}
	// ACIM agrees that this is the global minimum (Theorem 5.3 in action).
	final := acim.Minimize(got, cs)
	if !pattern.Isomorphic(final, want) {
		t.Errorf("CDM;ACIM = %s, want %s", final, want)
	}
}

func TestCDMIsLocalOnly(t *testing.T) {
	// A case where CDM genuinely cannot reach the global minimum: the
	// structural duplicate branch needs containment-mapping reasoning.
	q := mp("a*[/b/c, /b/c, //d]")
	cs := ics.NewSet(ics.Desc("a", "d"))
	got := Minimize(q, cs)
	want := mp("a*[/b/c, /b/c]") // only the //d leaf is locally redundant
	if !pattern.Isomorphic(got, want) {
		t.Fatalf("CDM = %s, want %s", got, want)
	}
	final := acim.Minimize(got, cs)
	if !pattern.Isomorphic(final, mp("a*/b/c")) {
		t.Errorf("CDM;ACIM = %s, want a*/b/c", final)
	}
}

func TestCDMFigure2fCoOccurrence(t *testing.T) {
	q := mp("Organization*[/Employee/Project, /PermEmp/DBproject]")
	cs := ics.NewSet(ics.Co("PermEmp", "Employee"), ics.Co("DBproject", "Project"))
	got := Minimize(q, cs)
	// CDM removes Project (covered by sibling DBproject? no — different
	// parents; it removes nothing at the leaves... verify what it can do
	// locally): Project's parent is Employee with no constraint, so only
	// the pair under Organization matters — but Employee and PermEmp are
	// internal. CDM cannot remove the Employee branch (its leaf Project
	// has no local witness under Employee); the global step is ACIM's.
	if got.Size() != q.Size() {
		// Locally the Project leaf IS redundant once Employee and PermEmp
		// are compared... it is not: witnesses live under a different
		// parent. CDM must leave the query alone.
		t.Errorf("CDM changed fig2f: %s", got)
	}
	final := acim.Minimize(got, cs)
	if !pattern.Isomorphic(final, mp("Organization*/PermEmp/DBproject")) {
		t.Errorf("CDM;ACIM = %s", final)
	}
}

func TestStarAndRootSurvive(t *testing.T) {
	q := mp("a/b*")
	cs := ics.NewSet(ics.Child("a", "b"))
	got := Minimize(q, cs)
	if got.Size() != 2 {
		t.Errorf("CDM removed the output node: %s", got)
	}
}

func TestMultiTypeLeafNeedsFullCover(t *testing.T) {
	q := mp("a*[/b{x}, /c]")
	// c ~ b alone does not cover the extra type x.
	got := Minimize(q, ics.NewSet(ics.Co("c", "b")))
	if got.Size() != 3 {
		t.Errorf("CDM dropped a partially covered leaf: %s", got)
	}
	got = Minimize(q, ics.NewSet(ics.Co("c", "b"), ics.Co("c", "x")))
	if !pattern.Isomorphic(got, mp("a*/c")) {
		t.Errorf("CDM kept a fully covered leaf: %s", got)
	}
}

func TestStatsAndPasses(t *testing.T) {
	q := mp("a*/b/c")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"))
	clone := q.Clone()
	st := MinimizeInPlace(clone, cs)
	if st.Removed != 2 || clone.Size() != 1 {
		t.Errorf("Removed = %d size %d, want 2 removed size 1", st.Removed, clone.Size())
	}
	if st.Passes < 2 {
		t.Errorf("Passes = %d, want >= 2 (a verification pass)", st.Passes)
	}
	st2 := MinimizeInPlace(clone, cs)
	if st2.Removed != 0 || st2.Passes != 1 {
		t.Errorf("second run: %+v, want 0 removals in 1 pass", st2)
	}
}

// TestProbesCountLookups: Probes counts the rules' lookups into the
// constraint set, and constraints over other types — stored, never
// returned by a lookup — do not change it.
func TestProbesCountLookups(t *testing.T) {
	chain := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"))
	// Per removed leaf: the parent's child targets, then one
	// co-occurrence test of the target against the leaf.
	if st := MinimizeInPlace(mp("a*/b/c"), chain); st.Probes != 4 {
		t.Errorf("chain: Probes = %d, want 4", st.Probes)
	}
	// No constraints: per leaf, the parent's (empty) child targets and
	// one co-occurrence test against the sibling.
	if st := MinimizeInPlace(mp("a*[/b, /c]"), ics.NewSet()); st.Probes != 4 || st.Removed != 0 {
		t.Errorf("siblings: %+v, want 4 probes, 0 removed", st)
	}
	stored := chain.Clone()
	for i := 0; i < 50; i++ {
		stored.Add(ics.Desc(pattern.Type(fmt.Sprintf("y%d", i)), pattern.Type(fmt.Sprintf("z%d", i))))
	}
	if st := MinimizeInPlace(mp("a*/b/c"), stored.Closure()); st.Probes != 4 {
		t.Errorf("chain with 50 unrelated constraints stored: Probes = %d, want 4", st.Probes)
	}
}

func TestDebugDump(t *testing.T) {
	out := DebugDump(mp("t1*[/t2//t5/t6]"))
	for _, want := range []string{"t1", "~t5, p t6", "//t5"} {
		if !strings.Contains(out, want) {
			t.Errorf("DebugDump missing %q:\n%s", want, out)
		}
	}
}

// --- property tests ------------------------------------------------------

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

func TestCDMSemanticEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	types := []pattern.Type{"t0", "t1", "t2", "t3", "t4", "t5"}
	for i := 0; i < 80; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(8), 1+rng.Intn(4))
		min := Minimize(q, cs)
		for trial := 0; trial < 5; trial++ {
			var roots []*data.Node
			var all []*data.Node
			for len(all) < 1+rng.Intn(12) {
				if len(all) == 0 || rng.Intn(6) == 0 {
					r := data.NewNode(types[rng.Intn(len(types))])
					roots = append(roots, r)
					all = append(all, r)
				} else {
					all = append(all, all[rng.Intn(len(all))].Child(types[rng.Intn(len(types))]))
				}
			}
			f := data.NewForest(roots...)
			if err := data.Repair(f, cs); err != nil {
				t.Fatal(err)
			}
			a := match.Answers(q, f)
			b := match.Answers(min, f)
			if len(a) != len(b) {
				t.Fatalf("iter %d: CDM broke equivalence\nq   = %s\nmin = %s\ncs  = %s\ndata:\n%s",
					i, q, min, cs, f)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("iter %d: answer %d differs", i, j)
				}
			}
		}
	}
}

func TestCDMLocallyMinimalFixpoint(t *testing.T) {
	// Theorem 5.2: CDM output has no locally redundant leaf, so a second
	// run removes nothing.
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(10), 1+rng.Intn(5))
		min := Minimize(q, cs)
		st := MinimizeInPlace(min, cs)
		if st.Removed != 0 {
			t.Fatalf("iter %d: CDM not a fixpoint (removed %d more)", i, st.Removed)
		}
	}
}

func TestTheorem53CDMThenACIMIsOptimal(t *testing.T) {
	// CDM as a pre-filter does not compromise ACIM's optimality.
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 120; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(9), 1+rng.Intn(5))
		direct := acim.Minimize(q, cs)
		prefiltered := acim.Minimize(Minimize(q, cs), cs)
		if !pattern.Isomorphic(direct, prefiltered) {
			t.Fatalf("iter %d: ACIM and CDM;ACIM disagree\nq = %s\ncs = %s\nACIM      = %s\nCDM;ACIM  = %s",
				i, q, cs, direct, prefiltered)
		}
	}
}

func TestCDMNeverBeatsACIM(t *testing.T) {
	// CDM is local: it can never remove more than ACIM (which is optimal).
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 100; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(9), 1+rng.Intn(5))
		cdmOut := Minimize(q, cs)
		acimOut := acim.Minimize(q, cs)
		if cdmOut.Size() < acimOut.Size() {
			t.Fatalf("iter %d: CDM output smaller than ACIM's\nq = %s\ncs = %s", i, q, cs)
		}
	}
}
