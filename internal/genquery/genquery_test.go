package genquery

import (
	"math/rand"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/cim"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

func TestChain(t *testing.T) {
	q, cs := Chain(10)
	if q.Size() != 10 || cs.Len() != 9 {
		t.Fatalf("Chain(10): size %d constraints %d", q.Size(), cs.Len())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything but the root is locally redundant: CDM removes 9...
	clone := q.Clone()
	st := cdm.MinimizeInPlace(clone, cs.Closure())
	if st.Removed != 9 || clone.Size() != 1 {
		t.Errorf("CDM removed %d, want 9", st.Removed)
	}
	// ...and ACIM removes the same set (the Figure 9(a) property).
	out := acim.Minimize(q, cs)
	if out.Size() != 1 {
		t.Errorf("ACIM left %d nodes, want 1", out.Size())
	}
	// Without constraints nothing is redundant.
	if got := cim.Minimize(q); got.Size() != 10 {
		t.Errorf("CIM removed nodes from an irredundant chain: %d left", got.Size())
	}
}

func TestChainDegenerate(t *testing.T) {
	q, cs := Chain(1)
	if q.Size() != 1 || cs.Len() != 0 {
		t.Error("Chain(1) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Chain(0) did not panic")
		}
	}()
	Chain(0)
}

func TestBushy(t *testing.T) {
	for _, n := range []int{1, 7, 15, 50, 127} {
		q, cs := Bushy(n, 2)
		if q.Size() != n {
			t.Fatalf("Bushy(%d,2) size = %d", n, q.Size())
		}
		if n > 1 && cs.Len() != n-1 {
			t.Fatalf("Bushy(%d,2) constraints = %d, want %d", n, cs.Len(), n-1)
		}
		clone := q.Clone()
		st := cdm.MinimizeInPlace(clone, cs.Closure())
		if clone.Size() != 1 {
			t.Errorf("Bushy(%d): CDM left %d nodes (removed %d)", n, clone.Size(), st.Removed)
		}
	}
	// Fanout respected.
	q, _ := Bushy(13, 3)
	q.Walk(func(n *pattern.Node) {
		if len(n.Children) > 3 {
			t.Errorf("fanout %d exceeds 3", len(n.Children))
		}
	})
}

func TestStar(t *testing.T) {
	q, cs := Star(12)
	if q.Size() != 12 || len(q.Root.Children) != 11 {
		t.Fatalf("Star(12): size %d fanout %d", q.Size(), len(q.Root.Children))
	}
	clone := q.Clone()
	st := cdm.MinimizeInPlace(clone, cs.Closure())
	// All children except t1 are covered through the co-occurrence chain.
	if st.Removed != 10 || clone.Size() != 2 {
		t.Errorf("CDM removed %d (left %d), want 10 (left 2)", st.Removed, clone.Size())
	}
}

func TestRedundant(t *testing.T) {
	for _, c := range []struct{ size, redNodes, redDegree int }{
		{101, 1, 1}, {101, 90, 1}, {101, 10, 4}, {101, 2, 40}, {30, 5, 3},
	} {
		q := Redundant(c.size, c.redNodes, c.redDegree)
		if q.Size() != c.size {
			t.Fatalf("Redundant%v size = %d", c, q.Size())
		}
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
		// CIM removes exactly the redNodes bare leaves.
		clone := q.Clone()
		st := cim.MinimizeInPlace(clone, cim.Options{})
		if st.Removed != c.redNodes {
			t.Errorf("Redundant%v: CIM removed %d, want %d", c, st.Removed, c.redNodes)
		}
	}
}

func TestRedundantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undersized Redundant did not panic")
		}
	}()
	Redundant(3, 5, 5)
}

func TestFanAndFanRedundancy(t *testing.T) {
	q := Fan(101)
	if q.Size() != 101 || len(q.Root.Children) != 100 {
		t.Fatalf("Fan(101): size %d fanout %d", q.Size(), len(q.Root.Children))
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Without constraints nothing is redundant (all leaf types distinct).
	if got := cim.Minimize(q); got.Size() != 101 {
		t.Errorf("CIM removed %d nodes from an irredundant fan", 101-got.Size())
	}
	// FanRedundancy(x) makes exactly x leaves removable, for any x — the
	// query itself never changes, which is the Figure 7(a) design point.
	for _, x := range []int{0, 10, 90} {
		cs := FanRedundancy(x)
		if cs.Len() != x {
			t.Fatalf("FanRedundancy(%d) = %d constraints", x, cs.Len())
		}
		out, st := acim.MinimizeWithStats(q, cs.Closure())
		if st.Removed != x || out.Size() != 101-x {
			t.Errorf("x=%d: ACIM removed %d (left %d)", x, st.Removed, out.Size())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Fan(0) did not panic")
		}
	}()
	Fan(0)
}

func TestDeepWitness(t *testing.T) {
	q, cs := DeepWitness(20)
	if q.Size() != 41 {
		t.Fatalf("DeepWitness(20) size = %d, want 41", q.Size())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	closed := cs.Closure()
	// Both CDM engines remove all 20 leaves, nothing else.
	clone := q.Clone()
	st := cdm.MinimizeInPlace(clone, closed)
	if st.Removed != 20 || clone.Size() != 21 {
		t.Errorf("propagated removed %d (left %d), want 20 (left 21)", st.Removed, clone.Size())
	}
	direct := q.Clone()
	oracle.MinimizeDirectInPlace(direct, closed)
	if !pattern.Isomorphic(direct, clone) {
		t.Errorf("direct and propagated disagree on DeepWitness")
	}
	defer func() {
		if recover() == nil {
			t.Error("DeepWitness(0) did not panic")
		}
	}()
	DeepWitness(0)
}

func TestStarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Star(1) did not panic")
		}
	}()
	Star(1)
}

func TestRelevantConstraints(t *testing.T) {
	q := Redundant(40, 5, 3)
	for _, k := range []int{0, 10, 50, 150} {
		cs := RelevantConstraints(q, k)
		if cs.Len() != k {
			t.Errorf("RelevantConstraints(%d) = %d constraints", k, cs.Len())
		}
		if !cs.AcyclicRequired() {
			t.Errorf("RelevantConstraints(%d) cyclic", k)
		}
	}
	// The constraints must leave ACIM runnable and the query minimizable.
	cs := RelevantConstraints(q, 50)
	out := acim.Minimize(q, cs)
	if out.Size() > q.Size() {
		t.Error("minimization grew the query")
	}
}

// TestSpreadConstraints: unlike RelevantConstraints, whose chained pairs
// saturate the closure on a fan, every spread constraint is implied by
// no other, so the closed set grows with k — the Figure 7(a) load.
func TestSpreadConstraints(t *testing.T) {
	q := Fan(101)
	if sat := RelevantConstraints(q, 150); sat.Closure().Len() != RelevantConstraints(q, 100).Closure().Len() {
		t.Fatal("RelevantConstraints no longer saturates on a fan; revisit SpreadConstraints' doc")
	}
	prev := -1
	for _, k := range []int{0, 50, 100, 150} {
		cs := SpreadConstraints(q, k)
		if cs.Len() != k || !cs.AcyclicRequired() {
			t.Fatalf("SpreadConstraints(%d): %d constraints, acyclic %v", k, cs.Len(), cs.AcyclicRequired())
		}
		closed := cs.Closure().Len()
		if closed <= prev {
			t.Errorf("SpreadConstraints(%d) closes to %d constraints, not above %d", k, closed, prev)
		}
		prev = closed
	}
	all := SpreadConstraints(q, 150).Constraints()
	for i, c := range all {
		rest := ics.NewSet()
		for j, d := range all {
			if j != i {
				rest.Add(d)
			}
		}
		if rest.Closure().Has(c) {
			t.Errorf("%v is implied by the other spread constraints", c)
		}
	}
	// They leave the minimal query alone: Fan's leaves are c-children.
	if out := acim.Minimize(q, SpreadConstraints(q, 150)); out.Size() != q.Size() {
		t.Errorf("spread constraints changed the minimal query: %d nodes, want %d", out.Size(), q.Size())
	}
	defer func() {
		if recover() == nil {
			t.Error("SpreadConstraints past the available pairs did not panic")
		}
	}()
	SpreadConstraints(Fan(5), 5)
}

func TestHalfLocal(t *testing.T) {
	q, cs := HalfLocal(31) // k = 10
	if q.Size() != 31 {
		t.Fatalf("HalfLocal(31) size = %d", q.Size())
	}
	closed := cs.Closure()
	cdmOut := q.Clone()
	stCDM := cdm.MinimizeInPlace(cdmOut, closed)
	acimOut, stACIM := acim.MinimizeWithStats(q, cs)
	if stCDM.Removed != 10 {
		t.Errorf("CDM removed %d, want 10 (the local chain)", stCDM.Removed)
	}
	if stACIM.Removed != 20 {
		t.Errorf("ACIM removed %d, want 20 (chain + duplicate branch)", stACIM.Removed)
	}
	if acimOut.Size() != 11 {
		t.Errorf("ACIM output size = %d, want 11", acimOut.Size())
	}
	// The pre-filtered pipeline reaches the same minimum (Theorem 5.3).
	pre := acim.Minimize(cdmOut, cs)
	if !pattern.Isomorphic(pre, acimOut) {
		t.Errorf("CDM;ACIM = %s differs from ACIM = %s", pre, acimOut)
	}
}

func TestIrrelevant(t *testing.T) {
	cs := Irrelevant(150)
	if cs.Len() != 150 {
		t.Fatalf("Irrelevant(150) = %d", cs.Len())
	}
	// Disjoint from generator queries: CDM must remove the same nodes with
	// and without them.
	q, rel := Chain(20)
	with := q.Clone()
	for _, c := range Irrelevant(100).Constraints() {
		rel.Add(c)
	}
	st := cdm.MinimizeInPlace(with, rel.Closure())
	if st.Removed != 19 {
		t.Errorf("irrelevant constraints changed CDM behaviour: removed %d", st.Removed)
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		q := Random(rng, 1+rng.Intn(20), 4)
		if err := q.Validate(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		cs := RandomConstraints(rng, rng.Intn(6), 4)
		if !cs.AcyclicRequired() {
			t.Fatalf("iter %d: random constraints cyclic", i)
		}
		// Must be consumable by the full pipeline.
		out := acim.Minimize(cdm.Minimize(q, cs), cs)
		if out.Size() > q.Size() {
			t.Fatalf("iter %d: pipeline grew query", i)
		}
	}
}
