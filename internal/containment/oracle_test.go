package containment_test

// Cross-checks of the dense mapping search against the nested-map
// reference in internal/oracle. They live in the external test package
// because oracle imports containment.

import (
	"math/rand"
	"testing"

	"tpq/internal/containment"
	"tpq/internal/genquery"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// TestDenseMatchesMapRandom cross-validates the dense FindMapping against
// the nested-map reference on random pattern pairs: the two must agree on
// existence, and every dense witness must verify.
func TestDenseMatchesMapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		p := genquery.Random(rng, 1+rng.Intn(12), 4)
		q := genquery.Random(rng, 1+rng.Intn(12), 4)
		dense := containment.FindMapping(p, q)
		ref := oracle.FindMappingMap(p, q)
		if (dense == nil) != (ref == nil) {
			t.Fatalf("trial %d: dense=%v oracle=%v\np = %s\nq = %s",
				trial, dense != nil, ref != nil, p, q)
		}
		if dense != nil && !containment.Verify(p, q, dense) {
			t.Fatalf("trial %d: dense witness does not verify\np = %s\nq = %s", trial, p, q)
		}
	}
}

// TestDenseMatchesMapWorkloads cross-validates the kernels pairwise over
// the structured generator workloads (self-containment included).
func TestDenseMatchesMapWorkloads(t *testing.T) {
	chain, _ := genquery.Chain(25)
	bushy, _ := genquery.Bushy(25, 3)
	star, _ := genquery.Star(20)
	pats := []*pattern.Pattern{
		genquery.Fan(30),
		genquery.Redundant(24, 8, 2),
		chain, bushy, star,
	}
	for i, p := range pats {
		for j, q := range pats {
			dense := containment.FindMapping(p, q)
			if got, want := dense != nil, oracle.FindMappingMap(p, q) != nil; got != want {
				t.Errorf("pair (%d,%d): dense=%v oracle=%v", i, j, got, want)
			}
			if dense != nil && !containment.Verify(p, q, dense) {
				t.Errorf("pair (%d,%d): dense witness does not verify", i, j)
			}
		}
	}
}
