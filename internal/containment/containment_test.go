package containment

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
)

func mp(src string) *pattern.Pattern { return pattern.MustParse(src) }

func TestContainsBasic(t *testing.T) {
	cases := []struct {
		super, sub string
		want       bool
	}{
		// Dropping a condition relaxes the query.
		{"a*", "a*/b", true},
		{"a*/b", "a*", false},
		{"a*//b", "a*/b", true},   // child edge satisfies descendant edge
		{"a*/b", "a*//b", false},  // but not vice versa
		{"a*//c", "a*/b/c", true}, // descendant maps across a chain
		{"a*//c", "a*/b//c", true},
		{"a*//c", "a*//b//c", true},
		{"a*", "b*", false},
		{"a*", "a*", true},
		// Figure 2(h) ⊆ and ⊇ 2(i): the two Dept branches collapse.
		{
			"OrgUnit*/Dept/Researcher//DBProject",
			"OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]",
			true,
		},
		{
			"OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]",
			"OrgUnit*/Dept/Researcher//DBProject",
			true,
		},
		// Same shape but with the star moved onto the right-branch Dept:
		// the queries are no longer equivalent (Section 3.1).
		{
			"OrgUnit[/Dept/Researcher//DBProject, //Dept*//DBProject]",
			"OrgUnit/Dept*[/Researcher//DBProject, //DBProject]",
			true,
		},
		{
			"OrgUnit/Dept*[/Researcher//DBProject, //DBProject]",
			"OrgUnit[/Dept/Researcher//DBProject, //Dept*//DBProject]",
			false,
		},
		// Repeated types: both branches of the sub-query must map.
		{"a*[/b/c, /b/d]", "a*/b[/c, /d]", true},
		{"a*/b[/c, /d]", "a*[/b/c, /b/d]", false},
		// Star position must be preserved.
		{"a/b*", "a*/b", false},
		{"a*//a", "a*", false},
		{"a*", "a*//a", true},
	}
	for _, c := range cases {
		t.Run(c.super+"_vs_"+c.sub, func(t *testing.T) {
			if got := Contains(mp(c.super), mp(c.sub)); got != c.want {
				t.Errorf("Contains(%q, %q) = %v, want %v", c.super, c.sub, got, c.want)
			}
		})
	}
}

func TestContainedInAndEquivalent(t *testing.T) {
	a, b := mp("a*[/b, //c]"), mp("a*[//c, /b]")
	if !Equivalent(a, b) {
		t.Error("isomorphic patterns not equivalent")
	}
	small, big := mp("a*"), mp("a*/b")
	if !ContainedIn(big, small) {
		t.Error("a*/b should be contained in a*")
	}
	if ContainedIn(small, big) {
		t.Error("a* should not be contained in a*/b")
	}
	if Equivalent(small, big) {
		t.Error("a* and a*/b equivalent")
	}
}

func TestExtraTypes(t *testing.T) {
	// A node requiring {Employee,Person} maps only onto nodes carrying both.
	p := mp("Org*/Employee{Person}")
	q := mp("Org*/Employee")
	if Exists(p, q) {
		t.Error("mapping should fail: image lacks Person")
	}
	if !Exists(q, p) {
		t.Error("mapping should succeed: image has superset of types")
	}
}

func TestFindMappingWitness(t *testing.T) {
	p := mp("OrgUnit*/Dept/Researcher//DBProject")
	q := mp("OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]")
	m := FindMapping(p, q)
	if m == nil {
		t.Fatal("no mapping found")
	}
	if !Verify(p, q, m) {
		t.Error("returned mapping fails verification")
	}
	if FindMapping(mp("a*/b"), mp("a*")) != nil {
		t.Error("mapping found where none exists")
	}
	if Verify(mp("a*"), mp("a*"), nil) {
		t.Error("nil mapping verified")
	}
}

func TestNonAnchoredRootMapping(t *testing.T) {
	// The root of the mapped query may land below the root of the target:
	// x//a/b* has an embedding wherever a/b* does... but only if x sits
	// above, so a/b* contains x//a/b*.
	if !Contains(mp("a/b*"), mp("x//a/b*")) {
		t.Error("a/b* should contain x//a/b*")
	}
	if Contains(mp("x//a/b*"), mp("a/b*")) {
		t.Error("x//a/b* should not contain a/b*")
	}
}

func TestEmptyPatterns(t *testing.T) {
	if Exists(&pattern.Pattern{}, mp("a*")) || Exists(mp("a*"), &pattern.Pattern{}) {
		t.Error("empty pattern participated in a mapping")
	}
}

// --- semantic cross-validation -----------------------------------------

// semanticallyContains decides containment by brute force: super contains
// sub iff on the canonical databases of sub (d-edges expanded with 0 and 1
// fresh hops) every answer of sub is an answer of super. With an unbounded
// type alphabet this is exact for patterns without wildcards.
func semanticallyContains(super, sub *pattern.Pattern) bool {
	for hops := 0; hops <= 1; hops++ {
		f, m := data.Canonical(sub, hops)
		want := m[sub.OutputNode()]
		got := answers(super, f)
		found := false
		for _, n := range got {
			if n == want {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// answers is p's answer set over f on the streaming engine that
// tpq.Matcher runs. A pattern the engine cannot compile (no output node)
// answers nothing.
func answers(p *pattern.Pattern, f *data.Forest) []*data.Node {
	sq, err := stream.Compile(p, match.NewForestIndex(f), stream.Options{})
	if err != nil {
		return nil
	}
	return slices.Collect(sq.Answers(context.Background()))
}

func randomQuery(rng *rand.Rand, size int, types []pattern.Type) *pattern.Pattern {
	root := pattern.NewNode(types[rng.Intn(len(types))])
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		parent := nodes[rng.Intn(len(nodes))]
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		nodes = append(nodes, parent.AddChild(kind, pattern.NewNode(types[rng.Intn(len(types))])))
	}
	nodes[rng.Intn(len(nodes))].Star = true
	return pattern.New(root)
}

func TestHomomorphismTheorem(t *testing.T) {
	// Containment mappings and brute-force evaluation over canonical
	// databases must agree (the Chandra-Merlin adaptation of Section 4).
	rng := rand.New(rand.NewSource(7))
	types := []pattern.Type{"a", "b", "c"}
	agree, contained := 0, 0
	for i := 0; i < 400; i++ {
		p := randomQuery(rng, 1+rng.Intn(4), types)
		q := randomQuery(rng, 1+rng.Intn(4), types)
		byMapping := Contains(p, q)
		bySemantics := semanticallyContains(p, q)
		if byMapping != bySemantics {
			t.Fatalf("iter %d: Contains(%s, %s) = %v but semantics say %v",
				i, p, q, byMapping, bySemantics)
		}
		agree++
		if byMapping {
			contained++
		}
	}
	if contained == 0 || contained == agree {
		t.Fatalf("degenerate test distribution: %d/%d contained", contained, agree)
	}
}

func TestMappingWitnessAlwaysVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	types := []pattern.Type{"a", "b", "c"}
	found := 0
	for i := 0; i < 300; i++ {
		p := randomQuery(rng, 1+rng.Intn(5), types)
		q := randomQuery(rng, 1+rng.Intn(6), types)
		if m := FindMapping(p, q); m != nil {
			found++
			if !Verify(p, q, m) {
				t.Fatalf("iter %d: witness fails verification for %s -> %s", i, p, q)
			}
		}
	}
	if found == 0 {
		t.Fatal("no mappings found in 300 trials; generator broken")
	}
}
