package xpath

import (
	"strings"
	"testing"

	"tpq/internal/cim"
	"tpq/internal/containment"
	"tpq/internal/pattern"
)

func TestFromXPathBasic(t *testing.T) {
	cases := []struct {
		src     string
		size    int
		starTy  pattern.Type
		pattern string // expected text-syntax rendering ("" = skip)
	}{
		{"//a", 1, "a", "a*"},
		{"//a/b", 2, "b", "a/b*"},
		{"//a//b", 2, "b", "a//b*"},
		{"//a[b]", 2, "a", "a*/b"},
		{"//a[.//b]", 2, "a", "a*//b"},
		{"//a[b/c][.//d]/e", 5, "e", "a[/b/c, //d]/e*"},
		{"//a[@price<100]", 1, "a", "a*(@price<100)"},
		{"//a[b[@p>=2]/c]", 3, "a", "a*/b(@p>=2)/c"},
		{"/a/b", 3, "b", ""}, // anchored: synthetic #document root
		{"//OrgUnit[Dept/Researcher[.//DBProject]]", 4, "OrgUnit", ""},
		{"//a[b][b]", 3, "a", "a*[/b, /b]"},
	}
	for _, c := range cases {
		t.Run(c.src, func(t *testing.T) {
			p, err := FromXPath(c.src)
			if err != nil {
				t.Fatalf("FromXPath(%q): %v", c.src, err)
			}
			if p.Size() != c.size {
				t.Errorf("size = %d, want %d", p.Size(), c.size)
			}
			star := p.OutputNode()
			if star == nil || star.Type != c.starTy {
				t.Errorf("output = %v, want %q", star, c.starTy)
			}
			if c.pattern != "" {
				want := pattern.MustParse(c.pattern)
				if !pattern.Isomorphic(p, want) {
					t.Errorf("FromXPath(%q) = %s, want %s", c.src, p, want)
				}
			}
		})
	}
}

func TestFromXPathErrors(t *testing.T) {
	for _, bad := range []string{
		"", "a/b", "//", "//a[", "//a[]", "//a[b", "//a]b",
		"//a[@p?3]", "//a[@p<]", ".//a", "//a[/b]", "//a/b/",
		"/a/./b", "//a[b/.//c]", "//.a",
		// Names the text grammar cannot read back: an XML name starts
		// with a letter or '_', and in XPath 0 is a number.
		"//0/1", "//a/-b", "//Article/9lives", "//a[@9p<3]",
	} {
		if _, err := FromXPath(bad); err == nil {
			t.Errorf("FromXPath(%q) succeeded", bad)
		}
	}
}

func TestToXPathBasic(t *testing.T) {
	cases := []struct{ pat, want string }{
		{"a*", "//a"},
		{"a/b*", "//a/b"},
		{"a//b*", "//a//b"},
		{"a*/b", "//a[b]"},
		{"a*//b", "//a[.//b]"},
		{"a*(@price<100)", "//a[@price<100]"},
		{"a*[/b/c, //d]/e", "//a[b/c][.//d][e]"}, // e is off-spine: the output is a
		{"a/b*[/c]", "//a/b[c]"},
		{"a*[/b[/c, //d]]", "//a[b[c][.//d]]"},
	}
	for _, c := range cases {
		got, err := ToXPath(pattern.MustParse(c.pat))
		if err != nil {
			t.Fatalf("ToXPath(%s): %v", c.pat, err)
		}
		if got != c.want {
			t.Errorf("ToXPath(%s) = %q, want %q", c.pat, got, c.want)
		}
	}
}

func TestToXPathAnchored(t *testing.T) {
	p, err := FromXPath("/Library/Book")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ToXPath(p)
	if err != nil {
		t.Fatal(err)
	}
	if back != "/Library/Book" {
		t.Errorf("anchored round trip = %q", back)
	}
}

func TestToXPathErrors(t *testing.T) {
	if _, err := ToXPath(&pattern.Pattern{}); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := ToXPath(pattern.New(pattern.NewNode("a"))); err == nil {
		t.Error("pattern without output node accepted")
	}
	multi := pattern.MustParse("a{b}*")
	if _, err := ToXPath(multi); err == nil || !strings.Contains(err.Error(), "extra types") {
		t.Errorf("multi-typed pattern: %v", err)
	}
}

func TestRoundTripPreservesSemantics(t *testing.T) {
	// pattern -> xpath -> pattern must yield an equivalent (indeed
	// isomorphic) query.
	srcs := []string{
		"a*",
		"OrgUnit*[/Dept/Researcher//DBProject, //Dept//DBProject]",
		"Articles/Article*[/Title, //Paragraph, /Section//Paragraph]",
		"a*(@p<10)[/b(@q>=2)//c, /d]",
		"a/b/c*[//d]",
	}
	for _, src := range srcs {
		p := pattern.MustParse(src)
		xp, err := ToXPath(p)
		if err != nil {
			t.Fatalf("ToXPath(%s): %v", src, err)
		}
		back, err := FromXPath(xp)
		if err != nil {
			t.Fatalf("FromXPath(%q): %v", xp, err)
		}
		if !pattern.Isomorphic(p, back) {
			t.Errorf("round trip of %s via %q gave %s", src, xp, back)
		}
		if !containment.Equivalent(p, back) {
			t.Errorf("round trip of %s broke equivalence", src)
		}
	}
}

func TestXPathMinimizationPipeline(t *testing.T) {
	// A realistic workflow: take a redundant XPath, minimize the pattern,
	// emit the smaller XPath.
	p, err := FromXPath("//OrgUnit[Dept/Researcher[.//DBProject]][.//Dept[.//DBProject]]")
	if err != nil {
		t.Fatal(err)
	}
	min := cim.Minimize(p)
	xp, err := ToXPath(min)
	if err != nil {
		t.Fatal(err)
	}
	if xp != "//OrgUnit[Dept/Researcher//DBProject]" {
		t.Errorf("minimized XPath = %q", xp)
	}
}
