package pattern

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	cases := []struct {
		src  string
		size int
		out  Type // type of the output node
	}{
		{"a*", 1, "a"},
		{"a/b*", 2, "b"},
		{"a//b*", 2, "b"},
		{"a*//b", 2, "a"},
		{"a*[/b, /c]", 3, "a"},
		{"a*[//b, /c/d, //e//f]", 6, "a"},
		{"Articles/Article*[/Title, //Paragraph, /Section//Paragraph]", 6, "Article"},
		{"a{p,q}*/b{r}", 2, "a"},
		{" a * [ / b , // c ] ", 3, "a"},
		{"a*[/b[/c, /d], //e]", 5, "a"},
		{"a*[/b/c/d]", 4, "a"},
		{"a-b.c*/x_1", 2, "a-b.c"},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			p, err := Parse(c.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", c.src, err)
			}
			if got := p.Size(); got != c.size {
				t.Errorf("Size = %d, want %d", got, c.size)
			}
			star := p.OutputNode()
			if star == nil || star.Type != c.out {
				t.Errorf("output node = %v, want %q", star, c.out)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("parsed pattern invalid: %v", err)
			}
		})
	}
}

func TestParseStructure(t *testing.T) {
	p := MustParse("a*[/b//c, //d]")
	r := p.Root
	if r.Type != "a" || !r.Star || len(r.Children) != 2 {
		t.Fatalf("bad root: %+v", r)
	}
	b, d := r.Children[0], r.Children[1]
	if b.Type != "b" || b.Edge != Child {
		t.Errorf("first child = %v edge %v", b.Type, b.Edge)
	}
	if d.Type != "d" || d.Edge != Descendant {
		t.Errorf("second child = %v edge %v", d.Type, d.Edge)
	}
	if len(b.Children) != 1 || b.Children[0].Type != "c" || b.Children[0].Edge != Descendant {
		t.Errorf("chain child wrong: %+v", b.Children)
	}
}

func TestParseExtras(t *testing.T) {
	p := MustParse("Employee{Person,Agent}*")
	r := p.Root
	if !r.HasType("Person") || !r.HasType("Agent") || !r.HasType("Employee") {
		t.Errorf("extras not parsed: %v", r.Types())
	}
}

func TestParseDefaultEdgeInBrackets(t *testing.T) {
	// A child with no edge marker defaults to a c-child.
	p := MustParse("a*[b, c]")
	for _, c := range p.Root.Children {
		if c.Edge != Child {
			t.Errorf("default edge for %q = %v, want Child", c.Type, c.Edge)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "type name"},
		{"a", "output nodes"},     // valid syntax, no star
		{"a*/b*", "output nodes"}, // two stars
		{"a*[", "type name"},      // truncated
		{"a*[]", "empty child"},   // empty list
		{"a*[/b", "',' or ']'"},   // unclosed
		{"a*{", "unexpected"},     // star before extras not allowed
		{"a{b", "',' or '}'"},     // unclosed extras
		{"a* b", "unexpected"},    // trailing garbage
		{"1a*", "type name"},      // bad name start
		{"a*[/b,]", "type name"},  // trailing comma
		{"a*//", "type name"},     // dangling edge
		{"a**", "unexpected"},     // double star
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Parse(%q) = %v, want error containing %q", c.src, err, c.want)
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("not a pattern [")
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"a*",
		"a/b*",
		"a//b*",
		"a*[/b, //c]",
		"Articles/Article*[/Section//Paragraph, /Title, //Paragraph]",
		"a{p,q}*[/b{r}//c, /b]",
		"a*[/b[/c, //d], /b[/c, //d]]",
		"#document/a/b*", // the root of an anchored XPath expression
	}
	for _, src := range srcs {
		p := MustParse(src)
		s := p.String()
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s, err)
		}
		if !Isomorphic(p, q) {
			t.Errorf("round trip of %q gave %q, not isomorphic", src, s)
		}
		if q.String() != s {
			t.Errorf("String not stable: %q then %q", s, q.String())
		}
	}
}

func TestStringCanonicalOrder(t *testing.T) {
	// Isomorphic patterns written with different sibling orders must print
	// identically.
	p := MustParse("a*[/b, //c, /d/e]")
	q := MustParse("a*[/d/e, //c, /b]")
	if p.String() != q.String() {
		t.Errorf("canonical printing differs: %q vs %q", p, q)
	}
}

func TestEmptyPatternString(t *testing.T) {
	if (&Pattern{}).String() != "<empty>" {
		t.Error("empty pattern String wrong")
	}
}

// randomPattern builds a pseudo-random valid pattern from a seed, used by
// the quick-check round-trip property.
func randomPattern(seed int64, maxNodes int) *Pattern {
	rng := newTestRand(seed)
	types := []Type{"a", "b", "c", "d", "e"}
	root := NewNode(types[rng.next()%len(types)])
	nodes := []*Node{root}
	n := 1 + rng.next()%maxNodes
	for len(nodes) < n {
		parent := nodes[rng.next()%len(nodes)]
		kind := Child
		if rng.next()%2 == 0 {
			kind = Descendant
		}
		c := parent.AddChild(kind, NewNode(types[rng.next()%len(types)]))
		if rng.next()%4 == 0 {
			c.AddType(types[rng.next()%len(types)])
		}
		nodes = append(nodes, c)
	}
	nodes[rng.next()%len(nodes)].Star = true
	return New(root)
}

// newTestRand is a tiny deterministic generator (xorshift) so the package
// tests do not depend on math/rand ordering guarantees.
type testRand struct{ s uint64 }

func newTestRand(seed int64) *testRand {
	if seed == 0 {
		seed = 1
	}
	return &testRand{uint64(seed)}
}

func (r *testRand) next() int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % (1 << 30))
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPattern(seed, 12)
		if p.Validate() != nil {
			// Star may collide with an extra-typed node etc.; regenerated
			// patterns are always valid by construction, so a failure here
			// is a bug.
			return false
		}
		q, err := Parse(p.String())
		if err != nil {
			return false
		}
		return Isomorphic(p, q) && q.Size() == p.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsomorphicDistinguishes(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"a*[/b, //c]", "a*[//c, /b]", true},
		{"a*[/b, /c]", "a*[/b, //c]", false}, // edge kind matters
		{"a*/b", "a*//b", false},
		{"a*/b", "a/b*", false}, // star position matters
		{"a{p}*", "a*", false},  // extras matter
		{"a*[/b, /b]", "a*[/b]", false},
		{"a*[/b/c, /b//c]", "a*[/b//c, /b/c]", true},
	}
	for _, c := range cases {
		got := Isomorphic(MustParse(c.a), MustParse(c.b))
		if got != c.same {
			t.Errorf("Isomorphic(%q, %q) = %v, want %v", c.a, c.b, got, c.same)
		}
	}
}
