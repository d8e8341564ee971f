package engine

import (
	"context"
	"fmt"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// workload builds a mixed set of generated queries with redundancy.
func workload(t *testing.T, n int) []*pattern.Pattern {
	t.Helper()
	var qs []*pattern.Pattern
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			qs = append(qs, genquery.Redundant(8+i%5, 2, 2))
		case 1:
			q, _ := genquery.Chain(5 + i%7)
			qs = append(qs, q)
		case 2:
			q, _ := genquery.Bushy(7+i%3, 2)
			qs = append(qs, q)
		default:
			q, _ := genquery.Star(4 + i%6)
			qs = append(qs, q)
		}
	}
	return qs
}

var algos = []Algo{Auto, CIM, CDM, ACIM}

// run minimizes q through MinimizeContextTraced with a live context.
func run(t *testing.T, m *Minimizer, q *pattern.Pattern, tr *trace.Trace) Result {
	t.Helper()
	r, err := m.MinimizeContextTraced(context.Background(), q, tr)
	if err != nil {
		t.Fatalf("MinimizeContextTraced(%s): %v", q, err)
	}
	return r
}

// TestInputNotMutated checks that minimization leaves the input pattern
// untouched, whatever the algorithm.
func TestInputNotMutated(t *testing.T) {
	qs := workload(t, 8)
	cs := ics.NewSet(ics.Child("t0", "t1"), ics.Desc("t1", "t2"))
	for _, algo := range algos {
		m := New(Options{Algo: algo, Constraints: cs})
		for i, q := range qs {
			before := q.String()
			run(t, m, q, nil)
			if q.String() != before {
				t.Fatalf("%s: query %d mutated:\n was  %s\n now  %s", algo, i, before, q.String())
			}
		}
	}
}

// TestRemovedCounts checks the reported removals against the size delta:
// every algorithm reports what it removed, split between its phases.
func TestRemovedCounts(t *testing.T) {
	qs := workload(t, 12)
	cs := ics.NewSet(ics.Child("t0", "t1"), ics.Desc("t1", "t2"))
	for _, algo := range algos {
		m := New(Options{Algo: algo, Constraints: cs})
		for _, q := range qs {
			r := run(t, m, q, nil)
			if got, want := r.CDMRemoved+r.ACIMRemoved, q.Size()-r.Output.Size(); got != want {
				t.Errorf("%s: removed CDM %d + ACIM %d, size delta %d for %s", algo, r.CDMRemoved, r.ACIMRemoved, want, q)
			}
			if (algo == CIM || algo == ACIM) && r.CDMRemoved != 0 || algo == CDM && r.ACIMRemoved != 0 {
				t.Errorf("%s: removals reported for a phase that did not run: %+v", algo, r)
			}
		}
	}
}

func ExampleMinimizer() {
	m := New(Options{Constraints: ics.MustParseSet("Section => Paragraph")})
	q := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	r, _ := m.MinimizeContextTraced(context.Background(), q, nil)
	fmt.Printf("%s -> %s (CDM removed %d, ACIM %d)\n", q, r.Output, r.CDMRemoved, r.ACIMRemoved)
	// Output:
	// Articles/Article*[//Paragraph, /Section//Paragraph] -> Articles/Article*/Section (CDM removed 2, ACIM 0)
}

// TestMinimizeContext checks the cancellation contract: a live context
// minimizes exactly like the paper's pipeline run by hand, a cancelled
// one returns the error without an output.
func TestMinimizeContext(t *testing.T) {
	q := genquery.Redundant(12, 3, 2)
	cs := ics.NewSet(ics.Child("t0", "t1"))
	m := New(Options{Constraints: cs})

	r := run(t, m, q, nil)
	closed := cs.Closure()
	pre := q.Clone()
	cdm.MinimizeInPlace(pre, closed)
	if want := acim.Minimize(pre, closed); !pattern.Isomorphic(r.Output, want) {
		t.Errorf("output %s != CDM then ACIM %s", r.Output, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := m.MinimizeContextTraced(ctx, q, nil)
	if err == nil {
		t.Fatalf("cancelled context: want error, got result %+v", r)
	}
	if r.Output != nil {
		t.Errorf("cancelled context: output should be nil, got %s", r.Output)
	}
}
