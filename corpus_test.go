package tpq

// Integration test over a corpus of realistic XPath queries: each query
// parses, minimizes under the domain constraints, matches identically
// before and after on both generated corpora, and round-trips through
// ToXPath. This is the end-to-end pipeline a downstream user runs.

import (
	"math/rand"
	"testing"

	"tpq/internal/oracle"
)

var publishingCorpus = []struct {
	xpath string
	note  string
}{
	{"//Article", "all articles"},
	{"//Article[Title]", "title implied by constraint"},
	{"//Article[Title][Author]", "both implied"},
	{"//Article[Author/LastName]", "last names implied transitively"},
	{"//Article[.//LastName]", "descendant form"},
	{"//Article[Section[.//Paragraph]]", "paragraph implied under section"},
	{"//Article[Section][.//Paragraph]", "paragraph implied by the section"},
	{"//Articles/Article[Title]/Section", "spine with predicate"},
	{"//Section[.//Paragraph][.//Paragraph]", "duplicate predicates"},
	{"//Article[Author][Author/LastName]", "author subsumed by author/lastname"},
	{"//Article[Author[FirstName]]", "first names are optional: no shrink below Author"},
	{"//Paragraph", "leaf query"},
	{"//Article[Section/Section]", "nested sections"},
	{"//Article[@year>=1995]", "value condition"},
	{"//Article[@year>=1995][@year>=1990]", "entailed condition folds"},
	{"//Article[Title]/Author[LastName]", "predicates along the spine"},
	{"//Articles[.//Paragraph]/Article[Section]", "root predicate implied by the article's section"},
}

var directoryCorpus = []string{
	"//OrgUnit[Dept]",
	"//OrgUnit[.//Dept]",
	"//Dept[Manager]",
	"//Dept[Manager][Employee]",
	"//Dept[Researcher[.//DBProject]][.//Project]",
	"//OrgUnit[Dept/Researcher[.//DBProject]][.//Dept[.//DBProject]]",
	"//Employee[Project]",
	"//Person",
}

func TestPublishingCorpusEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	forest := SamplePublishingForest(rng, 120)
	cs := SamplePublishingConstraints()
	shrunk := 0
	for _, c := range publishingCorpus {
		q, err := FromXPath(c.xpath)
		if err != nil {
			t.Fatalf("%s: %v", c.xpath, err)
		}
		min, rep := MinimizeReport(q, cs)
		if rep.Unsatisfiable {
			t.Errorf("%s flagged unsatisfiable", c.xpath)
		}
		if rep.OutputSize > rep.InputSize {
			t.Errorf("%s grew", c.xpath)
		}
		if rep.OutputSize < rep.InputSize {
			shrunk++
		}
		before, after := Match(q, forest), Match(min, forest)
		if len(before) != len(after) {
			t.Fatalf("%s (%s): answers %d -> %d", c.xpath, c.note, len(before), len(after))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: answer %d differs", c.xpath, i)
			}
		}
		if _, err := ToXPath(min); err != nil {
			t.Errorf("%s: minimized form not renderable: %v", c.xpath, err)
		}
		if !EquivalentUnder(q, min, cs) {
			t.Errorf("%s: not equivalent under constraints", c.xpath)
		}
	}
	if shrunk < 8 {
		t.Errorf("only %d corpus queries shrank; corpus too easy", shrunk)
	}
}

func TestDirectoryCorpusEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	forest := SampleDirectoryForest(rng, 50)
	cs := SampleDirectoryConstraints()
	for _, src := range directoryCorpus {
		q, err := FromXPath(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		min := MinimizeUnderConstraints(q, cs)
		if len(Match(q, forest)) != len(Match(min, forest)) {
			t.Fatalf("%s: answer count changed", src)
		}
		// The reference bindings agree.
		if len(oracle.BindingsMap(min, forest)[min.OutputNode()]) != len(Match(min, forest)) {
			t.Fatalf("%s: engine and reference disagree", src)
		}
	}
}

func TestMinimizeReport(t *testing.T) {
	q := MustParse("a*[/b/c, /b/c, //d]")
	cs := NewConstraints(RequiredDescendant("a", "d"))
	min, rep := MinimizeReport(q, cs)
	if rep.InputSize != 6 || rep.OutputSize != min.Size() {
		t.Errorf("sizes wrong: %+v", rep)
	}
	if rep.CDMRemoved != 1 { // the //d leaf is the only local redundancy
		t.Errorf("CDMRemoved = %d, want 1", rep.CDMRemoved)
	}
	if rep.ACIMRemoved != 2 { // the duplicate /b/c branch
		t.Errorf("ACIMRemoved = %d, want 2", rep.ACIMRemoved)
	}
	if rep.Unsatisfiable {
		t.Error("satisfiable query flagged")
	}
	// Forbidden conflict sets the flag.
	_, rep2 := MinimizeReport(MustParse("x*/y"), NewConstraints(ForbidChild("x", "y")))
	if !rep2.Unsatisfiable {
		t.Error("unsatisfiable query not flagged")
	}
}

func TestSampleForests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pub := SamplePublishingForest(rng, 20)
	if !SatisfiesConstraints(pub, SamplePublishingConstraints()) {
		t.Error("publishing sample violates its constraints")
	}
	dir := SampleDirectoryForest(rng, 10)
	if !SatisfiesConstraints(dir, SampleDirectoryConstraints()) {
		t.Error("directory sample violates its constraints")
	}
}
