package service

import "container/list"

// lruCache is a fixed-capacity least-recently-used cache from cache keys
// to minimization entries. It does its own no locking: the Service guards
// it with the same mutex that serializes admission, so get/add are plain
// list-and-map operations. A capacity <= 0 cache holds nothing: get
// always misses and add is a no-op (not an insert-then-evict, which
// would do wasted list/map work and report a phantom eviction).
type lruCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem struct {
	key string
	val *entry
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the entry for key, refreshing its recency.
func (c *lruCache) get(key string) (*entry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// getBytes is get for a key still in a scratch buffer: the map index
// with an inline string conversion compiles to a no-allocation lookup,
// which is what keeps the cache-hit path allocation-free.
func (c *lruCache) getBytes(key []byte) (*entry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts (or refreshes) key and returns how many entries were
// evicted to stay within capacity.
func (c *lruCache) add(key string, val *entry) int {
	if c.cap <= 0 {
		return 0
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruItem).val = val
		return 0
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, val: val})
	evicted := 0
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruItem).key)
		evicted++
	}
	return evicted
}

func (c *lruCache) len() int { return c.ll.Len() }
