package engine

import (
	"testing"

	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// TestMinimizeTracedPopulatesPhases checks that the trace threaded
// through the Auto pipeline ends up with every phase it ran timed, the
// documented nesting invariant intact, and the work counters agreeing
// with the Result.
func TestMinimizeTracedPopulatesPhases(t *testing.T) {
	q := genquery.Redundant(14, 2, 3)
	cs := ics.NewSet(ics.Child("t0", "t1"), ics.Desc("t1", "t2"))
	m := New(Options{Constraints: cs})

	tr := trace.New()
	r := run(t, m, q, tr)
	plain := run(t, m, q, nil)
	if r.Output.Canonical() != plain.Output.Canonical() {
		t.Fatalf("traced output differs from untraced:\n%s\n%s", r.Output, plain.Output)
	}

	for _, ph := range []trace.Phase{trace.CDM, trace.Chase, trace.ACIM, trace.CIM, trace.Compact} {
		if tr.Dur(ph) <= 0 {
			t.Errorf("Dur(%s) = %v, want > 0", ph, tr.Dur(ph))
		}
	}
	if tr.Dur(trace.Parse) != 0 {
		t.Errorf("Dur(parse) = %v, want 0 — the engine never parses", tr.Dur(trace.Parse))
	}
	// ACIM nests chase, CIM and compact; the sub-phases cannot exceed it.
	sum := tr.Dur(trace.Chase) + tr.Dur(trace.CIM) + tr.Dur(trace.Compact)
	if sum > tr.Dur(trace.ACIM) {
		t.Errorf("chase+cim+compact %v > acim %v: spans do not nest", sum, tr.Dur(trace.ACIM))
	}

	if got := tr.Count(trace.CDMRemoved); got != int64(r.CDMRemoved) {
		t.Errorf("Count(cdm_removed) = %d, Result.CDMRemoved = %d", got, r.CDMRemoved)
	}
	if got := tr.Count(trace.ACIMRemoved); got != int64(r.ACIMRemoved) {
		t.Errorf("Count(acim_removed) = %d, Result.ACIMRemoved = %d", got, r.ACIMRemoved)
	}
	if got := tr.Count(trace.TablesBuilt); got != int64(r.TablesBuilt) {
		t.Errorf("Count(tables_built) = %d, Result.TablesBuilt = %d", got, r.TablesBuilt)
	}
	if got := tr.Count(trace.TablesDerived); got != int64(r.TablesDerived) {
		t.Errorf("Count(tables_derived) = %d, Result.TablesDerived = %d", got, r.TablesDerived)
	}
	if tr.Count(trace.Tests) <= 0 {
		t.Error("Count(tests) = 0, want > 0 — CIM must have tested leaves")
	}
}

// TestMinimizeTracedCountsWitnesses uses the paper's running example —
// "Section => Paragraph" makes the /Section//Paragraph branch subsume
// //Paragraph — where the chase provably adds a Paragraph witness.
func TestMinimizeTracedCountsWitnesses(t *testing.T) {
	q := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	m := New(Options{Constraints: ics.MustParseSet("Section => Paragraph"), Algo: ACIM})
	tr := trace.New()
	r := run(t, m, q, tr)
	if r.Output.Size() != 3 {
		t.Fatalf("output size %d, want 3:\n%s", r.Output.Size(), r.Output)
	}
	if tr.Count(trace.Augmented) <= 0 {
		t.Error("Count(augmented) = 0, want > 0 — the chase must have added a witness")
	}
	if tr.Dur(trace.Chase) <= 0 || tr.Dur(trace.Compact) <= 0 {
		t.Errorf("chase %v, compact %v: want both > 0", tr.Dur(trace.Chase), tr.Dur(trace.Compact))
	}
}

// TestMinimizeTracedNilTrace checks the tracing-off path: a nil trace
// changes nothing about the result.
func TestMinimizeTracedNilTrace(t *testing.T) {
	q := genquery.Redundant(12, 2, 2)
	m := New(Options{Constraints: ics.NewSet(ics.Child("t0", "t1"))})
	withTrace := run(t, m, q, trace.New())
	nilTraced := run(t, m, q, nil)
	if withTrace.Output.Canonical() != nilTraced.Output.Canonical() {
		t.Fatal("nil trace changed the minimization result")
	}
	if withTrace.CDMRemoved != nilTraced.CDMRemoved || withTrace.ACIMRemoved != nilTraced.ACIMRemoved {
		t.Fatalf("nil trace changed the report: %+v vs %+v", withTrace, nilTraced)
	}
}
