package pattern

import (
	"strings"
	"testing"
)

func c(src string) Condition {
	cond, err := ParseCondition(src)
	if err != nil {
		panic(err)
	}
	return cond
}

func TestParseCondition(t *testing.T) {
	cases := []struct {
		src  string
		want Condition
	}{
		{"@price<100", Condition{"price", OpLt, 100}},
		{"@price <= 99.5", Condition{"price", OpLe, 99.5}},
		{"@year>=1990", Condition{"year", OpGe, 1990}},
		{"@n > -3", Condition{"n", OpGt, -3}},
		{"@x=0", Condition{"x", OpEq, 0}},
		{"@x!=7", Condition{"x", OpNe, 7}},
	}
	for _, cse := range cases {
		got, err := ParseCondition(cse.src)
		if err != nil {
			t.Fatalf("ParseCondition(%q): %v", cse.src, err)
		}
		if got != cse.want {
			t.Errorf("ParseCondition(%q) = %v, want %v", cse.src, got, cse.want)
		}
		// Round trip through String.
		back, err := ParseCondition(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %v gave %v (%v)", got, back, err)
		}
	}
	for _, bad := range []string{"", "price<100", "@<100", "@price", "@price<abc", "@price~3", "@0! =0", "@a>b<1"} {
		if _, err := ParseCondition(bad); err == nil {
			t.Errorf("ParseCondition(%q) succeeded", bad)
		}
	}
}

func TestConditionHolds(t *testing.T) {
	cases := []struct {
		cond  string
		v     float64
		holds bool
	}{
		{"@p<100", 99, true},
		{"@p<100", 100, false},
		{"@p<=100", 100, true},
		{"@p>5", 5, false},
		{"@p>=5", 5, true},
		{"@p=3", 3, true},
		{"@p=3", 3.5, false},
		{"@p!=3", 3, false},
		{"@p!=3", 4, true},
	}
	for _, cse := range cases {
		if got := c(cse.cond).Holds(cse.v); got != cse.holds {
			t.Errorf("%s.Holds(%g) = %v, want %v", cse.cond, cse.v, got, cse.holds)
		}
	}
}

func TestEntails(t *testing.T) {
	cases := []struct {
		have, want []Condition
		entails    bool
	}{
		// Tighter bounds entail looser ones.
		{[]Condition{c("@p<50")}, []Condition{c("@p<100")}, true},
		{[]Condition{c("@p<100")}, []Condition{c("@p<50")}, false},
		{[]Condition{c("@p<=50")}, []Condition{c("@p<100")}, true},
		{[]Condition{c("@p<100")}, []Condition{c("@p<100")}, true},
		{[]Condition{c("@p<100")}, []Condition{c("@p<=100")}, true},
		{[]Condition{c("@p<=100")}, []Condition{c("@p<100")}, false},
		{[]Condition{c("@p>10")}, []Condition{c("@p>=10")}, true},
		{[]Condition{c("@p>=10")}, []Condition{c("@p>10")}, false},
		// Equality is the strongest premise.
		{[]Condition{c("@p=5")}, []Condition{c("@p<6"), c("@p>4")}, true},
		{[]Condition{c("@p=5")}, []Condition{c("@p=5")}, true},
		{[]Condition{c("@p=5")}, []Condition{c("@p!=6")}, true},
		{[]Condition{c("@p=5")}, []Condition{c("@p!=5")}, false},
		// Intervals entail equality only when degenerate.
		{[]Condition{c("@p>=5"), c("@p<=5")}, []Condition{c("@p=5")}, true},
		{[]Condition{c("@p>=5"), c("@p<=6")}, []Condition{c("@p=5")}, false},
		// Disequalities.
		{[]Condition{c("@p<3")}, []Condition{c("@p!=3")}, true},
		{[]Condition{c("@p<3")}, []Condition{c("@p!=2")}, false},
		{[]Condition{c("@p!=2")}, []Condition{c("@p!=2")}, true},
		// Unsatisfiable premises entail everything.
		{[]Condition{c("@p<3"), c("@p>5")}, []Condition{c("@p=99")}, true},
		{[]Condition{c("@p=3"), c("@p!=3")}, []Condition{c("@q<0")}, true},
		// Different attributes are independent.
		{[]Condition{c("@p<50")}, []Condition{c("@q<100")}, false},
		{[]Condition{c("@p<50"), c("@q=1")}, []Condition{c("@q>0")}, true},
		// Nothing entails something; anything entails nothing.
		{nil, []Condition{c("@p<1")}, false},
		{nil, nil, true},
		{[]Condition{c("@p<1")}, nil, true},
	}
	for _, cse := range cases {
		if got := Entails(cse.have, cse.want); got != cse.entails {
			t.Errorf("Entails(%v, %v) = %v, want %v", cse.have, cse.want, got, cse.entails)
		}
	}
}

func TestSatisfiable(t *testing.T) {
	if !Satisfiable([]Condition{c("@p<100"), c("@p>50")}) {
		t.Error("satisfiable set rejected")
	}
	if Satisfiable([]Condition{c("@p<50"), c("@p>100")}) {
		t.Error("unsatisfiable set accepted")
	}
	if Satisfiable([]Condition{c("@p=5"), c("@p!=5")}) {
		t.Error("excluded point accepted")
	}
	if !Satisfiable(nil) {
		t.Error("empty set unsatisfiable")
	}
}

func TestSampleConds(t *testing.T) {
	cases := [][]Condition{
		{c("@p<100")},
		{c("@p>50"), c("@p<100")},
		{c("@p>=5"), c("@p<=5")},
		{c("@p>0"), c("@p!=1"), c("@p<2")},
		{c("@p!=0"), c("@p!=1"), c("@p!=2")},
		{c("@p=7"), c("@q>3")},
	}
	for _, conds := range cases {
		attrs, ok := SampleConds(conds)
		if !ok {
			t.Fatalf("SampleConds(%v) unsatisfiable", conds)
		}
		for _, cond := range conds {
			if !cond.Holds(attrs[cond.Attr]) {
				t.Errorf("sample %v violates %v", attrs, cond)
			}
		}
	}
	if _, ok := SampleConds([]Condition{c("@p<0"), c("@p>0")}); ok {
		t.Error("sampled an unsatisfiable set")
	}
}

func TestParsePatternWithConditions(t *testing.T) {
	p := MustParse("Catalog/Book*(@price<100, @year>=1990)[/Title]")
	book := p.Root.Children[0]
	if len(book.Conds) != 2 {
		t.Fatalf("Conds = %v", book.Conds)
	}
	if book.Conds[0].Attr != "price" || book.Conds[1].Attr != "year" {
		t.Errorf("conds not sorted: %v", book.Conds)
	}
	// Round trip.
	s := p.String()
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", s, err)
	}
	if !Isomorphic(p, q) {
		t.Errorf("condition round trip broke isomorphism: %q", s)
	}
	if !strings.Contains(s, "@price<100") {
		t.Errorf("String lost conditions: %q", s)
	}
}

func TestConditionsAffectIsomorphism(t *testing.T) {
	a := MustParse("a*(@p<100)")
	b := MustParse("a*(@p<50)")
	cc := MustParse("a*")
	if Isomorphic(a, b) || Isomorphic(a, cc) {
		t.Error("conditions ignored by canonical form")
	}
	if !Isomorphic(a, MustParse("a*(@p<100)")) {
		t.Error("identical conditions not isomorphic")
	}
}

func TestCloneCopiesConds(t *testing.T) {
	p := MustParse("a*(@p<100)")
	q := p.Clone()
	q.Root.AddCond(c("@q>1"))
	if len(p.Root.Conds) != 1 {
		t.Error("clone shares condition slice with original")
	}
}

func TestParseConditionErrors(t *testing.T) {
	for _, bad := range []string{
		"a*(price<100)", // missing @
		"a*(@p<100",     // unclosed
		"a*(@p ? 3)",    // bad operator
		"a*(@p<)",       // missing number
		"a*()",          // empty list
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
	// Fuzz-found: strconv accepts "NAN", but a NaN threshold satisfies no
	// comparison and breaks Condition equality (NaN != NaN), so the
	// parser must reject it rather than emit an unroundtrippable value.
	for _, bad := range []string{"@0>NAN", "@p<nan", "@p = NaN"} {
		if _, err := ParseCondition(bad); err == nil {
			t.Errorf("ParseCondition(%q) succeeded, want NaN rejection", bad)
		}
	}
}
