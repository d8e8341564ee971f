package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Any() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) true after Remove")
	}
}

func TestWordOps(t *testing.T) {
	a, b := New(200), New(200)
	for i := 0; i < 200; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 200; i += 3 {
		b.Add(i)
	}
	and := New(200)
	and.CopyFrom(a)
	and.And(b)
	for i := 0; i < 200; i++ {
		want := i%2 == 0 && i%3 == 0
		if and.Has(i) != want {
			t.Fatalf("And: bit %d = %v, want %v", i, and.Has(i), want)
		}
	}
	or := New(200)
	or.CopyFrom(a)
	or.Or(b)
	for i := 0; i < 200; i++ {
		want := i%2 == 0 || i%3 == 0
		if or.Has(i) != want {
			t.Fatalf("Or: bit %d = %v, want %v", i, or.Has(i), want)
		}
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects: multiples of 6 are in both sets")
	}
	odd := New(200)
	for i := 1; i < 200; i += 2 {
		odd.Add(i)
	}
	if a.Intersects(odd) || odd.Intersects(a) {
		t.Fatal("Intersects: evens and odds share nothing")
	}
}

func TestNextSet(t *testing.T) {
	s := New(300)
	members := []int{3, 64, 65, 190, 299}
	for _, i := range members {
		s.Add(i)
	}
	got := []int{}
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(members) {
		t.Fatalf("NextSet walk = %v, want %v", got, members)
	}
	for k := range got {
		if got[k] != members[k] {
			t.Fatalf("NextSet walk = %v, want %v", got, members)
		}
	}
	if s.NextSet(300) != -1 {
		t.Fatal("NextSet past capacity should be -1")
	}
}

// TestIntersectsRange cross-validates the masked word scan against a
// naive bit loop on random sets and ranges.
func TestIntersectsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				s.Add(i)
			}
		}
		for rep := 0; rep < 20; rep++ {
			lo := rng.Intn(n+10) - 5
			hi := lo + rng.Intn(80) - 5
			naive := false
			for i := lo; i <= hi; i++ {
				if i >= 0 && i < n && s.Has(i) {
					naive = true
					break
				}
			}
			if got := s.IntersectsRange(lo, hi); got != naive {
				t.Fatalf("IntersectsRange(%d,%d) = %v, want %v (n=%d)", lo, hi, got, naive, n)
			}
			wantNext := -1
			for i := lo; i <= hi; i++ {
				if i >= 0 && i < n && s.Has(i) {
					wantNext = i
					break
				}
			}
			if lo >= 0 {
				if got := s.NextInRange(lo, hi); got != wantNext {
					t.Fatalf("NextInRange(%d,%d) = %d, want %d", lo, hi, got, wantNext)
				}
			}
		}
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(5, 130)
	m.Row(2).Add(129)
	m.Row(3).Add(0)
	if m.Row(2).Has(0) || !m.Row(2).Has(129) || !m.Row(3).Has(0) {
		t.Fatal("matrix rows interfere")
	}
	for _, i := range []int{0, 1, 4} {
		if m.Row(i).Any() {
			t.Fatalf("row %d not zero", i)
		}
	}
}

func TestRemoveRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		s := New(n)
		want := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
				want[i] = true
			}
		}
		lo := rng.Intn(n+20) - 10
		hi := lo + rng.Intn(n+20) - 5
		s.RemoveRange(lo, hi)
		for i := 0; i < n; i++ {
			if i >= lo && i <= hi {
				want[i] = false
			}
			if s.Has(i) != want[i] {
				t.Fatalf("trial %d: RemoveRange(%d,%d): bit %d = %v, want %v",
					trial, lo, hi, i, s.Has(i), want[i])
			}
		}
	}
}

func TestCopyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		s, src := New(n), New(n)
		want := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
				want[i] = true
			}
			if rng.Intn(2) == 0 {
				src.Add(i)
			}
		}
		lo := rng.Intn(n+20) - 10
		hi := lo + rng.Intn(n+20) - 5
		s.CopyRange(src, lo, hi)
		for i := 0; i < n; i++ {
			if i >= lo && i <= hi {
				want[i] = src.Has(i)
			}
			if s.Has(i) != want[i] {
				t.Fatalf("trial %d: CopyRange(%d,%d): bit %d = %v, want %v",
					trial, lo, hi, i, s.Has(i), want[i])
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := New(130), New(130)
	if !a.Equal(b) {
		t.Fatal("empty sets not equal")
	}
	a.Add(129)
	if a.Equal(b) {
		t.Fatal("sets differing at bit 129 reported equal")
	}
	b.Add(129)
	if !a.Equal(b) {
		t.Fatal("identical sets not equal")
	}
}
