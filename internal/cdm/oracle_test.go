package cdm_test

// Cross-checks of information-content propagation against the direct
// rule scan in internal/oracle. They live in the external test package
// because oracle imports cdm.

import (
	"math/rand"
	"testing"

	"tpq/internal/cdm"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// minimizeDirect runs the direct rule scan on a clone of q.
func minimizeDirect(q *pattern.Pattern, cs *ics.Set) *pattern.Pattern {
	out := q.Clone()
	oracle.MinimizeDirectInPlace(out, cs)
	return out
}

func TestDirectMatchesPropagatedOnExamples(t *testing.T) {
	cases := []struct {
		q  string
		cs []string
	}{
		{"t1*[/t2//t5/t6, //t3//t7, /t4/t8]",
			[]string{"t4 -> t8", "t3 => t7", "t2 ~ t4", "t2 ~ t3"}},
		{"a*[/b, /c]", []string{"a -> b"}},
		{"a*[//b, /c/d]", []string{"d ~ b"}},
		{"Articles/Article*[//Paragraph, /Section//Paragraph]",
			[]string{"Section => Paragraph"}},
	}
	for _, c := range cases {
		q := pattern.MustParse(c.q)
		cs := ics.MustParseSet(c.cs...)
		prop := cdm.Minimize(q, cs)
		direct := minimizeDirect(q, cs)
		if !pattern.Isomorphic(prop, direct) {
			t.Errorf("engines disagree on %s:\npropagated = %s\ndirect     = %s", c.q, prop, direct)
		}
	}
}

func TestDirectMatchesPropagatedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for i := 0; i < 300; i++ {
		q, cs := cdm.RandomSetup(rng, 1+rng.Intn(10), 1+rng.Intn(5))
		closed := cs.Closure()
		prop := cdm.Minimize(q, closed)
		direct := minimizeDirect(q, closed)
		if !pattern.Isomorphic(prop, direct) {
			t.Fatalf("iter %d: engines disagree\nq = %s\ncs = %s\npropagated = %s\ndirect     = %s",
				i, q, cs, prop, direct)
		}
	}
}

func TestDirectStats(t *testing.T) {
	q := pattern.MustParse("a*/b/c")
	cs := ics.MustParseSet("a -> b", "b -> c")
	clone := q.Clone()
	st := oracle.MinimizeDirectInPlace(clone, cs.Closure())
	if st.Removed != 2 || clone.Size() != 1 {
		t.Errorf("Removed = %d size %d", st.Removed, clone.Size())
	}
	if st.Passes < 2 || st.TotalTime <= 0 {
		t.Errorf("stats: %+v", st)
	}
}
