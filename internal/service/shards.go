package service

import (
	"runtime"
	"sync"

	"tpq/internal/lru"
)

// cacheShard is one lock domain of the sharded cache tier: its slice of
// the LRU and its own singleflight group. Requests hash their cache key
// to a shard and contend only with the traffic that lands there — the
// cache lock and the flight map lock both split N ways.
type cacheShard struct {
	mu     sync.Mutex
	lru    *lru.Cache[*entry]
	flight flightGroup

	// textIdx maps exact request text to the cache key it resolved to,
	// letting repeat requests with byte-identical query text skip the
	// parse and canonicalization entirely. Sharded by text hash (its own
	// dimension — the canon shard is usually a different one), bounded at
	// the shard's capacity (at least 1) with least-recently-used eviction;
	// a stale mapping only costs a missed fast path, never a wrong answer,
	// because the key lookup in the canon shard stays authoritative.
	textIdx *lru.Cache[string]
}

// numShards picks the shard count for a cache of the given total
// capacity: the next power of two ≥ 4×GOMAXPROCS — enough lock domains
// that even a core count's worth of spinning requests rarely collide —
// but never more shards than cache entries, so every shard keeps a
// usable capacity.
func numShards(totalCap int) int {
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	for n > 1 && n > totalCap {
		n >>= 1
	}
	return n
}

// newShards builds the shard array, splitting totalCap across shards
// (earlier shards absorb the remainder, so the capacities sum exactly
// to totalCap).
func newShards(totalCap int) []*cacheShard {
	n := numShards(totalCap)
	base, extra := totalCap/n, totalCap%n
	shards := make([]*cacheShard, n)
	for i := range shards {
		c := base
		if i < extra {
			c++
		}
		shards[i] = &cacheShard{lru: lru.New[*entry](c), textIdx: lru.New[string](max(c, 1))}
	}
	return shards
}

// shardHash spreads a cache key, held as bytes on the request path or
// as a string on the slow paths, over the shard space: FNV-1a finalized
// by splitmix64 (mix64) — raw FNV of keys sharing the
// constraint-fingerprint suffix stays correlated in the low bits, and
// the shard index is exactly the low bits.
func shardHash[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a full-avalanche mix, so every
// input bit reaches the low bits the shard mask keeps.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// getBytes returns the shard's entry for a key still in its scratch
// buffer, refreshing recency, without allocating.
func (sh *cacheShard) getBytes(key []byte) (*entry, bool) {
	sh.mu.Lock()
	e, ok := sh.lru.GetBytes(key)
	sh.mu.Unlock()
	return e, ok
}

// get returns the shard's entry for key, refreshing recency.
func (sh *cacheShard) get(key string) (*entry, bool) {
	sh.mu.Lock()
	e, ok := sh.lru.Get(key)
	sh.mu.Unlock()
	return e, ok
}
