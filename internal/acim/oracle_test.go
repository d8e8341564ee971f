package acim_test

// Tests of the §5.3 strategy algebra: ACIM is the A·M·R optimum of
// Lemma 5.4, checked against the reduction step and strategy interpreter
// in internal/oracle. They live in the external test package because
// oracle imports acim.

import (
	"math/rand"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

func TestReduce(t *testing.T) {
	// Reduction removes leaves bottom-up when implied by constraints.
	q := pattern.MustParse("a*/b/c")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"))
	removed := oracle.Reduce(q, cs)
	if removed != 2 || q.Size() != 1 {
		t.Errorf("Reduce removed %d, size now %d, want 2 removed size 1", removed, q.Size())
	}
	// Star is never removed.
	q2 := pattern.MustParse("a/b*")
	if oracle.Reduce(q2, cs) != 0 {
		t.Error("Reduce removed the output node")
	}
	// A leaf with extra types needs the witness to cover them.
	q3 := pattern.MustParse("a*/b{x}")
	if oracle.Reduce(q3, ics.NewSet(ics.Child("a", "b"))) != 0 {
		t.Error("Reduce dropped a leaf with uncovered extra type")
	}
	if oracle.Reduce(q3.Clone(), ics.NewSet(ics.Child("a", "b"), ics.Co("b", "x"))) != 1 {
		t.Error("Reduce kept a leaf fully covered via co-occurrence")
	}
}

func TestApplyStrategyIdentities(t *testing.T) {
	// Lemma 5.3: AMR is idempotent.
	q := pattern.MustParse(acim.Fig2b)
	cs := ics.NewSet(ics.Desc("Section", "Paragraph"))
	once := oracle.ApplyStrategy(q, cs, "AMR")
	twice := oracle.ApplyStrategy(once, cs, "AMR")
	if !pattern.Isomorphic(once, twice) {
		t.Errorf("AMR not idempotent: %s then %s", once, twice)
	}
	// AMR equals ACIM (Section 5.3: ACIM is an implementation of AMR).
	acimOut := acim.Minimize(q, cs)
	if !pattern.Isomorphic(once, acimOut) {
		t.Errorf("AMR = %s but ACIM = %s", once, acimOut)
	}
}

func TestApplyStrategyPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on unknown strategy step")
		}
	}()
	oracle.ApplyStrategy(pattern.MustParse("a*"), ics.NewSet(), "AXR")
}

func TestNoStrategyBeatsAMR(t *testing.T) {
	// Lemma 5.4: AMR produces the least-size equivalent query among all
	// strategies over {A, R, M}.
	rng := rand.New(rand.NewSource(41))
	steps := []byte{'A', 'R', 'M'}
	for i := 0; i < 60; i++ {
		q, cs := acim.RandomSetup(rng, 1+rng.Intn(7), 1+rng.Intn(4))
		best := oracle.ApplyStrategy(q, cs, "AMR").Size()
		acimSize := acim.Minimize(q, cs).Size()
		if acimSize != best {
			t.Fatalf("iter %d: ACIM size %d != AMR size %d for %s under %s",
				i, acimSize, best, q, cs)
		}
		for trial := 0; trial < 5; trial++ {
			n := 1 + rng.Intn(4)
			s := make([]byte, n)
			for j := range s {
				s[j] = steps[rng.Intn(3)]
			}
			if got := oracle.ApplyStrategy(q, cs, string(s)).Size(); got < best {
				t.Fatalf("iter %d: strategy %q reached size %d < AMR's %d on %s under %s",
					i, s, got, best, q, cs)
			}
		}
	}
}
