package difffuzz

import (
	"testing"

	"tpq/internal/acim"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Shrunk repros for the three pipeline bugs the tpqfuzz sweep surfaced
// (seed 99, 50k cases). All three had one root cause: Augment applied
// constraints only to pre-chase nodes, so temp witnesses carried neither
// their co-occurrence types nor their own required children, and ACIM
// could not map query branches onto constraint-guaranteed structure. Each
// test is named after the oracle that caught it and re-runs the full
// oracle battery on the exact shrunk input, then pins the expected
// minimum so a regression fails loudly rather than only tripping the
// generic agreement check.

func checkRepro(t *testing.T, query, wantMin string, conStrs ...string) {
	t.Helper()
	q, err := pattern.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	cs := ics.MustParseSet(conStrs...)
	if f := Check(q, cs); f != nil {
		t.Fatalf("oracle %q still fails: %v", f.Oracle, f)
	}
	out := acim.Minimize(q.Clone(), cs)
	want, err := pattern.Parse(wantMin)
	if err != nil {
		t.Fatalf("parse want %q: %v", wantMin, err)
	}
	if !pattern.Isomorphic(out, want) {
		t.Errorf("Minimize(%s) = %s, want %s", query, out, wantMin)
	}
}

// TestRegressAgreementCoWitnessType: ACIM alone left /t1{t2} in place
// because the t2 witness under t0 (from t0 -> t2) was not associated with
// its co-occurrence type t1 (t2 ~ t1), while CDM removed it — so
// CDM;ACIM and ACIM disagreed (Theorem 5.3 violation).
func TestRegressAgreementCoWitnessType(t *testing.T) {
	checkRepro(t, "t0[//t2*, /t1{t2}]", "t0//t2*",
		"t0 -> t2", "t2 ~ t1")
}

// TestRegressAgreementWitnessChain: after CDM removes /t1 (implied by
// t0 -> t1), eliminating /t2/t3 needs a witness chain through type t1 —
// a t1 witness carrying co-type t2 with its own guaranteed t3 child —
// even though t1 no longer occurs in the query. The original one-level,
// query-types-only augmentation could not build it.
func TestRegressAgreementWitnessChain(t *testing.T) {
	checkRepro(t, "t4*/t0[/t1, /t2/t3]", "t4*/t0",
		"t0 -> t1", "t1 -> t3", "t1 ~ t2")
}

// TestRegressMinimalityWitnessChild: the redundant leaf t2 under
// /t0/t3 survived because the t3 witness (via t1 ~ t3 on the t1 root)
// had no t2 child of its own despite t1 -> t2 — witnesses were never
// chased.
func TestRegressMinimalityWitnessChild(t *testing.T) {
	checkRepro(t, "t1[/t0/t3/t2, /t3*]", "t1[/t0, /t3*]",
		"t0 -> t1", "t1 -> t2", "t1 ~ t3")
}

// TestRegressAgreementTwinTypeSpelling: with mutually redundant twin
// leaves whose type sets are equal but spelled differently (t0{t2} vs
// t2{t0}), CIM's elimination order decides which twin survives — and the
// survivors differ only in the primary/extra split, which is parse
// syntax, not semantics. The order-independence oracle normalizes the
// spelling before comparing (Theorem 4.1 uniqueness is up to type-set
// isomorphism); it used to report a false order-dependence here.
func TestRegressAgreementTwinTypeSpelling(t *testing.T) {
	for _, q := range []string{
		"t2*[//t0{t2}, //t2{t0}]",
		"t1[/t0*/t1/t1, /t1/t1/t1{t0}, /t1/t1/t0{t1}]",
	} {
		if f := Check(pattern.MustParse(q), nil); f != nil {
			t.Errorf("oracle %q fails on %s: %v", f.Oracle, q, f)
		}
	}
}

// TestRegressEquivalenceJudgeTypeFilter: once witness chasing made ACIM
// correctly collapse /t1/t5 onto the guaranteed t3 child of t0 (which is
// also t2 and t1 by co-occurrence and has a t5 child via t2 -> t5), the
// equivalence judge rejected the result: its constraint filter kept only
// constraints whose target type occurs in one of the two queries, which
// severed the t0 -> t3, t3 ~ t1 chain. The judge now filters with the
// same chase.WantedWitnessTypes predicate augmentation uses.
func TestRegressEquivalenceJudgeTypeFilter(t *testing.T) {
	checkRepro(t, "t1/t0*/t1/t5", "t1/t0*",
		"t0 -> t3", "t2 -> t5", "t2 ~ t1", "t3 ~ t2")
}

// TestRegressAgreementVirtualEdgeKind: the first chained virtual-witness
// model let a child-edge query node map onto a descendant-edge witness of
// the chain — t1 => t2 only guarantees a t2 somewhere below the t1
// witness, yet /t1/t2 (child edge) was deemed removable. Nothing in these
// queries is redundant; physical augmentation hangs the witness on a
// d-edge a c-edge query node can never map across.
func TestRegressAgreementVirtualEdgeKind(t *testing.T) {
	for _, c := range []struct {
		q  string
		cs []string
	}{
		{"t2[/t0/t0/t1/t2, /t2/t2*]", []string{"t0 -> t1", "t1 => t2"}},
		{"t4*[//t3/t1, /t2]", []string{"t2 -> t3", "t3 => t4", "t4 ~ t1"}},
	} {
		q := pattern.MustParse(c.q)
		cs := ics.MustParseSet(c.cs...).Closure()
		if got := acim.Minimize(q, cs); !pattern.Isomorphic(got, q) {
			t.Errorf("acim.Minimize(%s) = %s, want it unchanged", c.q, got)
		}
		if f := Check(q, ics.MustParseSet(c.cs...)); f != nil {
			t.Errorf("oracle %q still fails on %s: %v", f.Oracle, c.q, f)
		}
	}
}

// TestRegressAgreementVirtualWitnessChains: the virtual-augmentation
// engine (an ACIM variant that kept witnesses only in the images tables)
// kept the old one-level witness model after physical witnesses became
// chains, so it missed the redundancies the chains expose. The expected
// outputs are the chain-aware ones.
func TestRegressAgreementVirtualWitnessChains(t *testing.T) {
	for _, c := range []struct {
		q, want string
		cs      []string
	}{
		{"t4*/t0[/t1, /t2/t3]", "t4*/t0", []string{"t0 -> t1", "t1 -> t3", "t1 ~ t2"}},
		{"t1[/t0/t3/t2, /t3*]", "t1[/t0, /t3*]", []string{"t0 -> t1", "t1 -> t2", "t1 ~ t3"}},
	} {
		q := pattern.MustParse(c.q)
		cs := ics.MustParseSet(c.cs...).Closure()
		if got := acim.Minimize(q, cs); !pattern.Isomorphic(got, pattern.MustParse(c.want)) {
			t.Errorf("acim.Minimize(%s) = %s, want %s", c.q, got, c.want)
		}
	}
}

// TestRegressAugmentPermanentTypes: re-augmenting an augmented query
// changed it. Both chases took every type of the query as a query type,
// temporary witnesses and temporary extra types included, so a second
// pass read a witness's type as the query's and associated it with a
// permanent node through a co-occurrence constraint: in t4/t3*/t0 the
// t2 witness under t0 made the second pass give t0 the extra type t2.
// The query types are now the permanent nodes' permanent types. These
// are the nine shrunk failures of tpqfuzz's default sweep (5,000 cases,
// seed 1); each failed oracle 6 before the fix.
func TestRegressAugmentPermanentTypes(t *testing.T) {
	for _, c := range []struct {
		q  string
		cs []string
	}{
		{"t4/t3*/t0", []string{"t0 => t2", "t2 => t3", "t0 ~ t2"}},
		{"t5/t0*/t3", []string{"t0 -> t1", "t1 -> t3", "t0 ~ t1"}},
		{"t1[/t3*, /t5/t0]", []string{"t1 -> t4", "t4 -> t5", "t0 ~ t4"}},
		{"t0*/t5/t3", []string{"t0 => t3", "t1 => t5", "t3 ~ t1"}},
		{"t0/t2*/t4", []string{"t0 -> t1", "t1 -> t4", "t0 ~ t1"}},
		{"t2[/t0, /t3*]", []string{"t0 -> t1", "t1 -> t3", "t0 ~ t1"}},
		{"t1{t0}*", []string{"t0 => t5", "t1 ~ t5", "t4 ~ t1", "t5 ~ t4"}},
		{"t0*/t3", []string{"t3 => t5", "t0 ~ t4", "t4 ~ t0", "t5 ~ t4"}},
		{"t1[/t1[/t0, /t1/t1*], /t3]", []string{"t0 -> t2", "t2 -> t3", "t0 ~ t2"}},
	} {
		if f := CheckAugment(pattern.MustParse(c.q), ics.MustParseSet(c.cs...)); f != nil {
			t.Errorf("oracle %q fails on %s under %v: %v", f.Oracle, c.q, c.cs, f)
		}
	}
}
