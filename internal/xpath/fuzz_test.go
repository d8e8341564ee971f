package xpath

import (
	"testing"

	"tpq/internal/pattern"
)

func FuzzFromXPath(f *testing.F) {
	for _, seed := range []string{
		"//a",
		"/Library/Book",
		"//a[b/c][.//d]/e",
		"//a[@price<100][b]",
		"//OrgUnit[Dept/Researcher[.//DBProject]][.//Dept[.//DBProject]]",
		"//a[",
		"//a[]",
		"a/b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := FromXPath(src)
		if err != nil {
			return
		}
		if vErr := p.Validate(); vErr != nil {
			t.Fatalf("FromXPath accepted invalid pattern for %q: %v", src, vErr)
		}
		// Cross-syntax: the text rendering of an accepted expression is
		// text the pattern grammar reads back to the same query, so a
		// client may send a reply's output back as a query.
		text, err := pattern.Parse(p.String())
		if err != nil {
			t.Fatalf("FromXPath(%q) renders as %q, which Parse rejects: %v", src, p.String(), err)
		}
		if !pattern.Isomorphic(p, text) {
			t.Fatalf("text round trip of FromXPath(%q) not isomorphic: %s vs %s", src, p, text)
		}
		// Accepted expressions round-trip through ToXPath (up to
		// isomorphism of the resulting patterns; the rendering may be a
		// terser equivalent).
		xp, err := ToXPath(p)
		if err != nil {
			t.Fatalf("ToXPath failed on FromXPath output of %q: %v", src, err)
		}
		back, err := FromXPath(xp)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", xp, src, err)
		}
		if !pattern.Isomorphic(p, back) {
			t.Fatalf("XPath round trip not isomorphic: %q -> %q", src, xp)
		}
	})
}
