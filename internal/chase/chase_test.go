package chase

import (
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

func TestFullChaseTerminatesOnAcyclic(t *testing.T) {
	p := pattern.MustParse("a*")
	cs := ics.NewSet(ics.Child("a", "b"), ics.Child("b", "c"))
	added := FullChase(p, cs, 100)
	if added != 2 || p.Size() != 3 {
		t.Errorf("FullChase added %d, size %d; want 2 (b under a, c under b)", added, p.Size())
	}
	// Idempotent once saturated.
	if FullChase(p, cs, 100) != 0 {
		t.Error("saturated chase added more")
	}
}

func TestFullChaseBoundedOnCycles(t *testing.T) {
	p := pattern.MustParse("a*")
	cs := ics.NewSet(ics.Desc("a", "b"), ics.Desc("b", "a"))
	added := FullChase(p, cs, 5)
	if added != 5 {
		t.Errorf("cyclic chase added %d nodes in 5 rounds, want 5", added)
	}
}

func TestFullChaseCoOccurrence(t *testing.T) {
	p := pattern.MustParse("a*")
	cs := ics.NewSet(ics.Co("a", "b"), ics.Child("b", "c"))
	FullChase(p, cs, 10)
	if !p.Root.HasType("b") {
		t.Error("co-occurrence type not added")
	}
	if len(p.Root.Children) != 1 || p.Root.Children[0].Type != "c" {
		t.Error("chase did not cascade through the added type")
	}
}
