// Package lru is the module's one least-recently-used cache: a
// fixed-capacity map from string keys to values that evicts the least
// recently used entry when an insert would overflow it. The service's
// result shards, its exact-text index and its or-cache, the chase-plan
// registry and each plan's instance cache are all instances of it.
//
// A Cache takes no lock of its own: every caller already holds one that
// serializes more than one cache operation (a shard's lock guards both
// its result cache and its text index, the registry's lock also covers
// compilation), so a lock inside would only be paid for twice. Entries are linked in an intrusive
// doubly linked list — no container/list, no interface boxing — and an
// insert at capacity reuses the evicted entry's node.
package lru

// Cache is a least-recently-used cache of at most Cap() entries. It is
// not safe for concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	capacity int
	items    map[string]*item[V]
	// root is the sentinel of the circular recency list: root.next is
	// the most recently used entry, root.prev the least.
	root item[V]
}

type item[V any] struct {
	key        string
	val        V
	prev, next *item[V]
}

// New returns an empty cache holding at most capacity entries. A
// capacity <= 0 cache holds nothing: Get always misses and Add is a
// no-op that reports no eviction.
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{capacity: capacity, items: make(map[string]*item[V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under key and marks it most recently
// used.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.found(c.items[key])
}

// GetBytes is Get for a key still in a scratch buffer. The map index
// with an inline string conversion compiles to a lookup that allocates
// nothing, which is what keeps the service's cache-hit path
// allocation-free.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	return c.found(c.items[string(key)])
}

func (c *Cache[V]) found(it *item[V]) (V, bool) {
	if it == nil {
		var zero V
		return zero, false
	}
	c.moveToFront(it)
	return it.val, true
}

// Add caches val under key as the most recently used entry, replacing
// the value of a key already cached, and returns how many entries it
// evicted to stay within capacity (0 or 1).
func (c *Cache[V]) Add(key string, val V) (evicted int) {
	if c.capacity <= 0 {
		return 0
	}
	if it, ok := c.items[key]; ok {
		it.val = val
		c.moveToFront(it)
		return 0
	}
	it := c.root.prev // the least recently used entry
	if len(c.items) < c.capacity {
		it = new(item[V])
	} else {
		c.unlink(it)
		delete(c.items, it.key)
		evicted = 1
	}
	it.key, it.val = key, val
	c.items[key] = it
	c.pushFront(it)
	return evicted
}

func (c *Cache[V]) moveToFront(it *item[V]) {
	if c.root.next != it {
		c.unlink(it)
		c.pushFront(it)
	}
}

func (c *Cache[V]) unlink(it *item[V]) {
	it.prev.next, it.next.prev = it.next, it.prev
}

func (c *Cache[V]) pushFront(it *item[V]) {
	it.prev, it.next = &c.root, c.root.next
	it.prev.next, it.next.prev = it, it
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return len(c.items) }

// Cap returns the capacity New was given.
func (c *Cache[V]) Cap() int { return c.capacity }
