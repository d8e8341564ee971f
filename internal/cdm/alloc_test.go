package cdm

import (
	"fmt"
	"runtime"
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// chainQuery is t0/t1/…/t(n-1)*: n nodes, n distinct types.
func chainQuery(n int) *pattern.Pattern {
	root := pattern.NewNode("t0")
	cur := root
	for i := 1; i < n; i++ {
		cur = cur.Child(pattern.Type(fmt.Sprintf("t%d", i)))
	}
	cur.Star = true
	return pattern.New(root)
}

// fanQuery is r*[/t0, /t1, …]: n nodes, n distinct types.
func fanQuery(n int) *pattern.Pattern {
	root := pattern.NewStar("r")
	for i := 0; i < n-1; i++ {
		root.Child(pattern.Type(fmt.Sprintf("t%d", i)))
	}
	return pattern.New(root)
}

// allocatedBytes returns the bytes MinimizeInPlace allocates on a fresh
// copy of q, scratch included: two collections empty the scratch pool.
func allocatedBytes(q *pattern.Pattern, cs *ics.Set) uint64 {
	p := q.Clone()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	MinimizeInPlace(p, cs)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMemoryLinearInQuery pins CDM's memory to the query's size: from
// 1,000 to 2,000 nodes of n distinct types, the bytes a run allocates may
// grow about 2x, not the 4x of a counter and a block per node over every
// type.
func TestMemoryLinearInQuery(t *testing.T) {
	cs := ics.NewSet()
	for _, shape := range []struct {
		name  string
		build func(int) *pattern.Pattern
	}{{"chain", chainQuery}, {"fan", fanQuery}} {
		small, large := shape.build(1000), shape.build(2000)
		allocatedBytes(small, cs) // compile the plan first
		b1, b2 := allocatedBytes(small, cs), allocatedBytes(large, cs)
		t.Logf("%s: %d B at 1,000 nodes, %d B at 2,000", shape.name, b1, b2)
		if ratio := float64(b2) / float64(b1); ratio > 2.5 {
			t.Errorf("%s: allocation grew %.2fx from 1,000 to 2,000 nodes, want at most 2.5x", shape.name, ratio)
		}
	}
}
