package tpq

// paper_test.go is the executable summary of the paper: one test per
// theorem, lemma, and named example, phrased against the public API where
// possible. Deeper, randomized versions of these properties live in the
// internal packages' test suites; this file is the map from the paper's
// claims to observable behaviour.

import (
	"math/rand"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/cim"
	"tpq/internal/genquery"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// --- Section 3: the problems, via Figure 2 -------------------------------

func TestFigure2Examples(t *testing.T) {
	figs := map[string]string{
		"a": "Articles/Article*[/Title, //Paragraph, /Section//Paragraph]",
		"b": "Articles/Article*[//Paragraph, /Section//Paragraph]",
		"c": "Articles/Article*/Section//Paragraph",
		"d": "Articles/Article*[//Paragraph, /Section]",
		"e": "Articles/Article*/Section",
		"f": "Organization*[/Employee/Project, /PermEmp/DBproject]",
		"g": "Organization*/PermEmp/DBproject",
		"h": "OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]",
		"i": "OrgUnit*/Dept/Researcher//DBProject",
	}
	q := func(k string) *Pattern { return MustParse(figs[k]) }

	// §3.1: (h) minimizes to (i) with no constraints.
	if !Isomorphic(Minimize(q("h")), q("i")) {
		t.Error("fig 2(h) did not minimize to 2(i)")
	}
	// §3.1: moving the star onto the right-branch Dept breaks equivalence.
	h2 := MustParse("OrgUnit[/Dept/Researcher//DBProject, //Dept*//DBProject]")
	i2 := MustParse("OrgUnit/Dept*[/Researcher//DBProject, //DBProject]")
	if Equivalent(h2, i2) {
		t.Error("starred variants should not be equivalent")
	}
	// §3.3: (f) + co-occurrence constraints = (g).
	coCS := NewConstraints(CoOccurrence("PermEmp", "Employee"), CoOccurrence("DBproject", "Project"))
	if !Isomorphic(MinimizeUnderConstraints(q("f"), coCS), q("g")) {
		t.Error("fig 2(f) did not minimize to 2(g)")
	}
	// §3.3: (a) + Article->Title reaches (c); with Section=>Paragraph too,
	// it reaches (e).
	titleCS := NewConstraints(RequiredChild("Article", "Title"))
	if !Isomorphic(MinimizeUnderConstraints(q("a"), titleCS), q("c")) {
		t.Error("fig 2(a) + Article->Title did not reach 2(c)")
	}
	bothCS := NewConstraints(RequiredChild("Article", "Title"), RequiredDescendant("Section", "Paragraph"))
	if !Isomorphic(MinimizeUnderConstraints(q("a"), bothCS), q("e")) {
		t.Error("fig 2(a) + both ICs did not reach 2(e)")
	}
	// §5.1's trap: chase-then-minimize without temporaries stalls at (c);
	// ACIM's augmentation reaches (e) from (b).
	secCS := NewConstraints(RequiredDescendant("Section", "Paragraph"))
	if !Isomorphic(MinimizeUnderConstraints(q("b"), secCS), q("e")) {
		t.Error("fig 2(b) + Section=>Paragraph did not reach 2(e)")
	}
	// (d) is minimal without ICs and reaches (e) with the IC.
	if !Isomorphic(Minimize(q("d")), q("d")) {
		t.Error("fig 2(d) should be CIM-minimal")
	}
	if !Isomorphic(MinimizeUnderConstraints(q("d"), secCS), q("e")) {
		t.Error("fig 2(d) + IC did not reach 2(e)")
	}
}

// --- Section 4 -------------------------------------------------------------

func TestProposition41RedundancyViaEndomorphism(t *testing.T) {
	// A node is redundant iff some endomorphism moves it: the containment
	// mapping a*[/b, /b/c] -> itself maps the bare b onto b/c's b.
	p := MustParse("a*[/b, /b/c]")
	if got := Minimize(p); got.Size() != 3 {
		t.Errorf("redundant leaf survived: %s", got)
	}
	// No endomorphism moves anything in a*[/b, /c]: minimal already.
	if got := Minimize(MustParse("a*[/b, /c]")); got.Size() != 3 {
		t.Error("irredundant query shrank")
	}
}

func TestTheorem41UniqueMinimum(t *testing.T) {
	// Any maximal elimination ordering reaches the same minimum, up to
	// isomorphism. (Deep randomized version: internal/cim.)
	q := MustParse("a*[/b/c, /b/c, /b[/c, /c]]")
	ref := Minimize(q)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		clone, m := q.CloneMap()
		order := map[*pattern.Node]int{}
		perm := rng.Perm(q.Size())
		i := 0
		q.Walk(func(n *pattern.Node) { order[m[n]] = perm[i]; i++ })
		cim.MinimizeInPlace(clone, cim.Options{Order: order})
		if !Isomorphic(clone, ref) {
			t.Fatalf("MEO order changed the minimum: %s vs %s", clone, ref)
		}
	}
	// b[/c, /c] collapses to b/c, then the three identical branches fold.
	if !Isomorphic(ref, MustParse("a*/b/c")) {
		t.Errorf("minimum = %s", ref)
	}
}

func TestTheorem42ImagesTest(t *testing.T) {
	// The images-table test agrees with the definition of redundancy.
	q := MustParse("a*[//b, /c//b]")
	var bare *pattern.Node
	for _, c := range q.Root.Children {
		if c.Type == "b" {
			bare = c
		}
	}
	if !cim.RedundantLeaf(q, bare) {
		t.Error("bare //b should be redundant (maps into c//b)")
	}
	var cNode *pattern.Node
	for _, c := range q.Root.Children {
		if c.Type == "c" {
			cNode = c
		}
	}
	if cim.RedundantLeaf(q, cNode.Children[0]) {
		t.Error("the b under c is not redundant")
	}
}

// --- Section 5 -------------------------------------------------------------

func TestTheorem51ACIMFindsUniqueMinimum(t *testing.T) {
	// Exhaustive oracle version lives in internal/acim (brute-force
	// sub-query enumeration); here, the headline example.
	q := MustParse("Book*[/Title, /Author, /Publisher]")
	cs := NewConstraints(RequiredChild("Book", "Publisher"))
	got := MinimizeUnderConstraints(q, cs)
	if !Isomorphic(got, MustParse("Book*[/Title, /Author]")) {
		t.Errorf("ACIM minimum wrong: %s", got)
	}
	// Idempotence — already minimal stays put.
	if !Isomorphic(MinimizeUnderConstraints(got, cs), got) {
		t.Error("minimization not idempotent")
	}
}

func TestLemma53AMRIdempotent(t *testing.T) {
	q := MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	cs := NewConstraints(RequiredDescendant("Section", "Paragraph"))
	once := oracle.ApplyStrategy(q, cs, "AMR")
	twice := oracle.ApplyStrategy(once, cs, "AMR")
	if !Isomorphic(once, twice) {
		t.Error("AMR not idempotent")
	}
}

func TestLemma52PruningStepsOnlyShrink(t *testing.T) {
	// Appending M or R to any strategy never grows the result; appending A
	// never blocks later pruning (σ·A·M·R ends at the global minimum).
	q := MustParse("t1*[/t2//t5/t6, //t3//t7, /t4/t8]")
	cs := NewConstraints(
		RequiredChild("t4", "t8"), RequiredDescendant("t3", "t7"),
		CoOccurrence("t2", "t4"), CoOccurrence("t2", "t3"),
	)
	min := MinimizeUnderConstraints(q, cs).Size()
	for _, sigma := range []string{"", "A", "M", "R", "AM", "MR", "RA", "AAM"} {
		base := oracle.ApplyStrategy(q, cs, sigma)
		withM := oracle.ApplyStrategy(q, cs, sigma+"M")
		withR := oracle.ApplyStrategy(q, cs, sigma+"R")
		if withM.Size() > base.Size() || withR.Size() > base.Size() {
			t.Errorf("σ=%q: appending a pruning step grew the query", sigma)
		}
		final := oracle.ApplyStrategy(q, cs, sigma+"AMR")
		if final.Size() != min {
			t.Errorf("σ=%q: σ·AMR missed the minimum (%d vs %d)", sigma, final.Size(), min)
		}
	}
}

func TestTheorem52CDMLocallyMinimal(t *testing.T) {
	q := MustParse("t1*[/t2//t5/t6, //t3//t7, /t4/t8]")
	cs := NewConstraints(
		RequiredChild("t4", "t8"), RequiredDescendant("t3", "t7"),
		CoOccurrence("t2", "t4"), CoOccurrence("t2", "t3"),
	)
	closed := cs.Closure()
	out := cdm.Minimize(q, closed)
	if st := cdm.MinimizeInPlace(out, closed); st.Removed != 0 {
		t.Error("CDM output not locally minimal")
	}
}

func TestTheorem53PrefilterPreservesOptimality(t *testing.T) {
	// CDM before ACIM reaches the same unique minimum as ACIM alone
	// (randomized version: internal/cdm). Exercised here on the Figure 9(b)
	// workload where CDM removes only half of what ACIM can.
	q, cs := genquery.HalfLocal(31)
	closed := cs.Closure()
	direct := acim.Minimize(q, closed)
	pre := acim.Minimize(cdm.Minimize(q, closed), closed)
	if !Isomorphic(direct, pre) {
		t.Errorf("prefilter changed the minimum: %s vs %s", pre, direct)
	}
}

// --- Section 6 workload sanity --------------------------------------------

func TestSection6WorkloadShapes(t *testing.T) {
	// Figure 9(a) workload: CDM and ACIM remove identical node sets.
	q, cs := genquery.Chain(25)
	closed := cs.Closure()
	cdmOut := cdm.Minimize(q, closed)
	acimOut := acim.Minimize(q, closed)
	if cdmOut.Size() != 1 || acimOut.Size() != 1 {
		t.Error("chain workload not fully reducible")
	}
	// Figure 7(a) workload: redundancy level never changes the query, only
	// the constraints.
	fan := genquery.Fan(51)
	s1 := fan.Canonical()
	_, _ = acim.MinimizeWithStats(fan, genquery.FanRedundancy(10).Closure())
	if fan.Canonical() != s1 {
		t.Error("minimization mutated the shared workload query")
	}
}
