package difffuzz

import (
	"testing"

	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Native differential fuzz targets. `go test` runs them over the seed
// corpus; extended fuzzing via e.g.
//
//	go test -fuzz=FuzzMinimizeUnderICs ./internal/difffuzz
//
// The byte string is decoded into a query (and constraint set) by
// genquery.FromBytes / FromBytesWithICs, so the fuzzer mutates query
// structure directly. Failures report the decoded repro strings; shrink
// and triage them with cmd/tpqfuzz.

// seeds covers the structural corners: single node, chains, fans, shared
// types, deep trees. The decoders read bytes positionally, so these are
// starting points for mutation, not meaningful cases by themselves.
var seeds = [][]byte{
	{},
	{0},
	{1, 1, 0, 0},
	{5, 2, 0, 0, 0, 1, 0, 1, 1, 0, 2, 1, 1},
	{9, 1, 0, 0, 0, 0, 1, 0, 0, 2, 1, 0, 3, 0, 0, 4, 1, 0, 5, 0, 0},
	{13, 3, 2, 0, 1, 1, 1, 0, 2, 2, 1, 0, 3, 0, 1, 4, 1, 2, 5, 0, 0, 6, 1, 1},
	{7, 2, 1, 0, 0, 0, 1, 1, 1, 2, 0, 0, 3, 1, 1, 4, 0, 0, 3, 0, 1, 2, 0, 1, 0, 3, 1, 2, 4},
}

func FuzzMinimizeEquiv(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := genquery.FromBytes(data)
		if err := CheckMinimize(q, nil).err(); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzMinimizeUnderICs(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, cs := genquery.FromBytesWithICs(data)
		if err := CheckMinimize(q, cs).err(); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzServiceConsistency(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, cs := genquery.FromBytesWithICs(data)
		if err := CheckService(q, cs).err(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzMatch runs the match oracle: a byte-decoded query through the
// evaluation kernels against the reference embedding definition, on its
// canonical database and on a forest generated under the decoded
// constraints.
func FuzzMatch(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, cs := genquery.FromBytesWithICs(data)
		if err := CheckMatch(q, cs).err(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzAugment runs oracle 6: a byte-decoded query augmented under the
// decoded constraints through the chase plan and through the per-call
// reference must come out identical, with the same wanted witness types,
// and re-augmenting must leave it as it is.
func FuzzAugment(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, cs := genquery.FromBytesWithICs(data)
		if err := CheckAugment(q, cs).err(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzOr runs the disjunctive oracle: a byte-decoded union of up to four
// disjuncts through evaluation-engine agreement, minimize-with-absorption
// equivalence, and the serving layer's disjunctive path.
func FuzzOr(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, cs := genquery.DisjunctionFromBytes(data)
		if err := CheckOr(d, cs).err(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzOrDecode keeps the disjunction decoder honest: every input must
// decode to a valid, canonically ordered union, deterministically.
func FuzzOrDecode(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, cs := genquery.DisjunctionFromBytes(data)
		if err := d.Validate(); err != nil {
			t.Fatalf("decoded disjunction invalid: %v", err)
		}
		d2, cs2 := genquery.DisjunctionFromBytes(data)
		if d.Canonical() != d2.Canonical() || cs.String() != cs2.String() {
			t.Fatalf("disjunction decode not deterministic")
		}
		// The canon must be insensitive to disjunct order: rebuild from a
		// rotated disjunct slice and compare.
		if n := len(d.Disjuncts); n > 1 {
			rot := append(append([]*pattern.Pattern{}, d.Disjuncts[1:]...), d.Disjuncts[0])
			if got := pattern.NewDisjunction(rot...).Canonical(); got != d.Canonical() {
				t.Fatalf("canon depends on disjunct order: %q vs %q", got, d.Canonical())
			}
		}
	})
}

// err converts a *Failure into an error without the nil-interface trap.
func (f *Failure) err() error {
	if f == nil {
		return nil
	}
	return f
}

// FuzzDecode keeps the byte decoders themselves honest: every input must
// decode to a query that validates, deterministically.
func FuzzDecode(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, cs := genquery.FromBytesWithICs(data)
		if err := q.Validate(); err != nil {
			t.Fatalf("decoded query invalid: %v", err)
		}
		q2, cs2 := genquery.FromBytesWithICs(data)
		if q.Canonical() != q2.Canonical() || cs.String() != cs2.String() {
			t.Fatalf("decode not deterministic")
		}
		if !cs.Closure().AcyclicRequired() {
			t.Fatalf("decoded constraints have a cyclic closure: %s", cs)
		}
		_ = ics.NewSet(cs.Constraints()...)
	})
}
