package oracle

import (
	"math/rand"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/cim"
	"tpq/internal/containment"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// TestReferencesOnPaperExamples checks each reference minimizer against
// the paper's worked examples: ACIM with the nested-map kernel and the
// size A·M·R reaches under constraints, and — without constraints — map
// and naive CIM.
func TestReferencesOnPaperExamples(t *testing.T) {
	cases := []struct {
		q, want string
		cs      []string
	}{
		// Figure 2(h) -> 2(i): CIM folds //Dept//DBProject onto the other branch.
		{"OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]", "OrgUnit*/Dept/Researcher//DBProject", nil},
		// Figure 2(b) -> 2(c) without constraints.
		{"Articles/Article*[//Paragraph, /Section//Paragraph]", "Articles/Article*/Section//Paragraph", nil},
		// Figure 2(b) -> 2(e) under Section => Paragraph.
		{"Articles/Article*[//Paragraph, /Section//Paragraph]", "Articles/Article*/Section", []string{"Section => Paragraph"}},
		// Figure 2(a) -> 2(e) under Article -> Title, Section => Paragraph.
		{"Articles/Article*[/Title, //Paragraph, /Section//Paragraph]", "Articles/Article*/Section",
			[]string{"Article -> Title", "Section => Paragraph"}},
		// Figure 2(f) -> 2(g): co-occurrence.
		{"Organization*[/Employee/Project, /PermEmp/DBproject]", "Organization*/PermEmp/DBproject",
			[]string{"PermEmp ~ Employee", "DBproject ~ Project"}},
		// Section 1: every book has a publisher.
		{"Book*[/Title, /Author, /Publisher]", "Book*[/Title, /Author]", []string{"Book -> Publisher"}},
	}
	for _, c := range cases {
		q, want := pattern.MustParse(c.q), pattern.MustParse(c.want)
		cs := ics.MustParseSet(c.cs...)
		if got, _ := acim.MinimizeWithRunner(q, cs, MinimizeMapInPlace); !pattern.Isomorphic(got, want) {
			t.Errorf("map ACIM(%s) = %s, want %s", c.q, got, c.want)
		}
		// A made the augmented types permanent, so only the size is the
		// paper's.
		if got := ApplyStrategy(q, cs, "AMR"); got.Size() != want.Size() {
			t.Errorf("AMR(%s) = %s, want the size of %s", c.q, got, c.want)
		}
		if len(c.cs) > 0 {
			continue
		}
		for name, run := range map[string]func(*pattern.Pattern) cim.Stats{
			"map":   MinimizeMapInPlace,
			"naive": MinimizeNaiveInPlace,
		} {
			got := q.Clone()
			if st := run(got); !pattern.Isomorphic(got, want) || st.Removed != q.Size()-want.Size() {
				t.Errorf("%s CIM(%s) = %s after %d removals, want %s", name, c.q, got, st.Removed, c.want)
			}
		}
	}
}

// TestReferencesAgainstJudge checks every reference on random queries
// under random acyclic constraint sets against the semantic definitions
// rather than against the production kernels: outputs are equivalent to
// their inputs (containment mappings without constraints, the
// bounded-chase judge with them), the complete minimizers leave no
// removable leaf, A·M·R reaches the minimum size (Lemma 5.4), and
// augmentation is idempotent and strips back to the input.
func TestReferencesAgainstJudge(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 150; trial++ {
		q := genquery.Random(rng, 1+rng.Intn(9), 4)
		cs := genquery.RandomConstraints(rng, rng.Intn(5), 4)
		closed := cs.Closure()

		// CIM references: equivalent by mutual containment mappings, and
		// no leaf of the result can go.
		naive := q.Clone()
		MinimizeNaiveInPlace(naive)
		for _, pair := range [][2]*pattern.Pattern{{q, naive}, {naive, q}} {
			m := FindMappingMap(pair[0], pair[1])
			if m == nil || !containment.Verify(pair[0], pair[1], m) {
				t.Fatalf("trial %d: no valid mapping %s -> %s", trial, pair[0], pair[1])
			}
		}
		forEachTrimmed(naive, func(trimmed *pattern.Pattern) {
			if FindMappingMap(naive, trimmed) != nil {
				t.Fatalf("trial %d: naive CIM output %s of %s keeps a redundant leaf (%s)", trial, naive, q, trimmed)
			}
		})
		mapped := q.Clone()
		MinimizeMapInPlace(mapped)
		if !pattern.Isomorphic(mapped, naive) {
			t.Fatalf("trial %d: map CIM %s, naive CIM %s on %s", trial, mapped, naive, q)
		}

		// ACIM and the strategy algebra: equivalent under the constraints
		// and minimal under them; A·M·R reaches the same size.
		out, _ := acim.MinimizeWithRunner(q, closed, MinimizeMapInPlace)
		if !acim.EquivalentUnder(q, out, closed) {
			t.Fatalf("trial %d: map ACIM output %s not equivalent to %s under %s", trial, out, q, cs)
		}
		forEachTrimmed(out, func(trimmed *pattern.Pattern) {
			if acim.EquivalentUnder(out, trimmed, closed) {
				t.Fatalf("trial %d: map ACIM output %s of %s under %s keeps a redundant leaf", trial, out, q, cs)
			}
		})
		if amr := ApplyStrategy(q, cs, "AMR"); amr.Size() != out.Size() || !acim.EquivalentUnder(q, amr, closed) {
			t.Fatalf("trial %d: AMR %s, map ACIM %s on %s under %s", trial, amr, out, q, cs)
		}

		// CDM is sound but incomplete: equivalent, never larger.
		direct := q.Clone()
		MinimizeDirectInPlace(direct, closed)
		if direct.Size() > q.Size() || !acim.EquivalentUnder(q, direct, closed) {
			t.Fatalf("trial %d: direct CDM output %s not equivalent to %s under %s", trial, direct, q, cs)
		}

		// The per-call chase, on the unclosed set.
		aug := q.Clone()
		added := Augment(aug, cs)
		if err := aug.Validate(); err != nil || aug.Size() != q.Size()+added {
			t.Fatalf("trial %d: augmenting %s added %d nodes to size %d (%v)", trial, q, added, aug.Size(), err)
		}
		if again := Augment(aug, cs); again != 0 {
			t.Fatalf("trial %d: re-augmenting %s added %d nodes", trial, q, again)
		}
		aug.StripTemp()
		if !pattern.Isomorphic(aug, q) {
			t.Fatalf("trial %d: augmented %s strips to %s", trial, q, aug)
		}
	}
}

// forEachTrimmed calls f with every copy of p that lacks one non-output
// leaf.
func forEachTrimmed(p *pattern.Pattern, f func(*pattern.Pattern)) {
	var leaves []*pattern.Node
	p.Walk(func(n *pattern.Node) {
		if n.IsLeaf() && !n.Star && n.Parent != nil {
			leaves = append(leaves, n)
		}
	})
	for _, l := range leaves {
		trimmed, m := p.CloneMap()
		m[l].Detach()
		f(trimmed)
	}
}
