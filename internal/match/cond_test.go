package match_test

import (
	"testing"

	"tpq/internal/data"
	"tpq/internal/pattern"
)

func TestMatchWithConditions(t *testing.T) {
	catalog := data.NewNode("Catalog")
	catalog.Child("Book").SetAttr("price", 80).SetAttr("year", 1995)
	catalog.Child("Book").SetAttr("price", 120).SetAttr("year", 2001)
	catalog.Child("Book") // no attributes
	f := data.NewForest(catalog)

	cases := []struct {
		q    string
		want int
	}{
		{"Catalog/Book*", 3},
		{"Catalog/Book*(@price<100)", 1},
		{"Catalog/Book*(@price<200)", 2}, // the attribute-less book never matches
		{"Catalog/Book*(@price<100, @year>=1990)", 1},
		{"Catalog/Book*(@price<100, @year<1990)", 0},
		{"Catalog/Book*(@price=120)", 1},
		{"Catalog/Book*(@price!=120)", 1},
	}
	for _, c := range cases {
		t.Run(c.q, func(t *testing.T) {
			p := pattern.MustParse(c.q)
			got := answers(p, f)
			if len(got) != c.want {
				t.Errorf("answers(%q) = %d, want %d", c.q, len(got), c.want)
			}
			naive := answersNaive(p, f)
			if len(naive) != len(got) {
				t.Errorf("naive oracle disagrees: %d vs %d", len(naive), len(got))
			}
		})
	}
}

func TestMatchConditionsOnInnerNodes(t *testing.T) {
	root := data.NewNode("Shop").SetAttr("rating", 4)
	root.Child("Item").SetAttr("price", 10)
	f := data.NewForest(root)
	if got := count(pattern.MustParse("Shop(@rating>3)/Item*"), f); got != 1 {
		t.Errorf("inner condition match = %d, want 1", got)
	}
	if got := count(pattern.MustParse("Shop(@rating>5)/Item*"), f); got != 0 {
		t.Errorf("failing inner condition matched %d", got)
	}
}

func TestCanonicalSatisfiesConditions(t *testing.T) {
	// The canonical database of a pattern with conditions must match the
	// pattern itself (its attributes are sampled from the conditions).
	p := pattern.MustParse("a*(@r>=2)[/b(@p>50, @p<100), //c(@q!=0)]")
	f, m := data.Canonical(p, 1)
	got := answers(p, f)
	if len(got) != 1 || got[0] != m[p.OutputNode()] {
		t.Errorf("pattern does not match its own canonical database: %v", got)
	}
}
