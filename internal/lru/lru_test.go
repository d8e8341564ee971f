package lru

import (
	"fmt"
	"testing"
)

func TestLRU(t *testing.T) {
	c := New[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// a was refreshed, so adding c evicts b.
	if ev := c.Add("c", 3); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if got, _ := c.Get("c"); got != 3 {
		t.Error("c lost its value")
	}
	// Refreshing an existing key neither grows nor evicts.
	if ev := c.Add("a", 9); ev != 0 || c.Len() != 2 {
		t.Errorf("refresh: evicted %d len %d", ev, c.Len())
	}
	if got, _ := c.Get("a"); got != 9 {
		t.Error("refresh did not replace the value")
	}
	if c.Cap() != 2 {
		t.Errorf("Cap = %d, want 2", c.Cap())
	}
}

// TestLRUZeroCapacity pins the cap<=0 semantics: the cache holds
// nothing, Add is a no-op that reports no evictions (not an
// insert-then-evict, which would count a phantom eviction), and Get
// always misses.
func TestLRUZeroCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[*int](capacity)
		if ev := c.Add("a", new(int)); ev != 0 {
			t.Errorf("cap %d: Add reported %d evictions, want 0", capacity, ev)
		}
		if c.Len() != 0 {
			t.Errorf("cap %d: Len = %d after Add, want 0", capacity, c.Len())
		}
		if _, ok := c.Get("a"); ok {
			t.Errorf("cap %d: Get returned an entry from an empty cache", capacity)
		}
		if _, ok := c.GetBytes([]byte("a")); ok {
			t.Errorf("cap %d: GetBytes returned an entry from an empty cache", capacity)
		}
	}
}

// TestEvictionOrder fills a cache, touches its entries in a known order
// through Get, GetBytes and Add, and checks that inserts past capacity
// evict exactly the least recently used key each time.
func TestEvictionOrder(t *testing.T) {
	const n = 8
	c := New[int](n)
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < n; i++ {
		if ev := c.Add(key(i), i); ev != 0 {
			t.Fatalf("Add(%s) evicted %d below capacity", key(i), ev)
		}
	}
	// Recency, least recent first: k0 … k7. Touch k3 (Get), k0
	// (GetBytes) and k5 (Add): now k1 k2 k4 k6 k7 k3 k0 k5.
	c.Get(key(3))
	c.GetBytes([]byte(key(0)))
	c.Add(key(5), 50)
	for j, want := range []int{1, 2, 4, 6, 7, 3, 0, 5} {
		if ev := c.Add(key(n+j), n+j); ev != 1 {
			t.Fatalf("insert %d evicted %d, want 1", j, ev)
		}
		if _, ok := c.Get(key(want)); ok {
			t.Fatalf("insert %d: %s survived, want it evicted as least recently used", j, key(want))
		}
		if c.Len() != n {
			t.Fatalf("Len = %d, want %d", c.Len(), n)
		}
	}
	for i := n; i < 2*n; i++ {
		if v, ok := c.Get(key(i)); !ok || v != i {
			t.Errorf("%s = %d, %v; want %d", key(i), v, ok, i)
		}
	}
}

// TestGetBytesAllocs pins the property the service's hit path rests on:
// a lookup by a key in a byte buffer, hit or miss, allocates nothing.
func TestGetBytesAllocs(t *testing.T) {
	c := New[*int](4)
	c.Add("present", new(int))
	hit, miss := []byte("present"), []byte("absent")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.GetBytes(hit); !ok {
			t.Fatal("hit missed")
		}
		if _, ok := c.GetBytes(miss); ok {
			t.Fatal("miss hit")
		}
	})
	if allocs != 0 {
		t.Errorf("GetBytes allocates %.1f times per hit and miss, want 0", allocs)
	}
}
