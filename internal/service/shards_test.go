package service

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tpq/internal/genquery"
	"tpq/internal/pattern"
	"tpq/internal/store"
)

// TestShardHashAgreement pins that the []byte and string instances of
// the shard hash agree — the warm-start insert path hashes key strings
// while the request path hashes pooled key bytes, and any divergence
// silently strands entries in a shard no lookup visits.
func TestShardHashAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		q := genquery.Random(rng, 3+rng.Intn(12), 6)
		key := q.Canonical() + "\x00" + "deadbeef"
		if shardHash([]byte(key)) != shardHash(key) {
			t.Fatalf("shardHash of bytes and of string disagree on %q", key)
		}
	}
}

// TestShardBalance pins the fingerprint distribution over the shard
// space: canonical-form cache keys — which all share the same constraint
// fingerprint suffix, the adversarial case for FNV's low bits — must
// spread evenly over 16 shards. The band is generous (every shard
// within 0.5x-1.5x of the mean, about 3 sigma at this sample size) so
// the test pins the mixing step, not the luck of one seed.
func TestShardBalance(t *testing.T) {
	const shardCount = 16
	const keys = 4096
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, shardCount)
	seen := make(map[string]bool, keys)
	for len(seen) < keys {
		q := genquery.Random(rng, 3+rng.Intn(14), 8)
		key := q.Canonical() + "\x00" + "0123456789abcdef0123456789abcdef"
		if seen[key] {
			continue
		}
		seen[key] = true
		counts[shardHash([]byte(key))&(shardCount-1)]++
	}
	mean := float64(keys) / shardCount
	for i, c := range counts {
		if float64(c) < 0.5*mean || float64(c) > 1.5*mean {
			t.Errorf("shard %d holds %d keys, outside [%.0f, %.0f] (mean %.0f): %v",
				i, c, 0.5*mean, 1.5*mean, mean, counts)
		}
	}
}

// TestTextIndexEvictsLeastRecentlyUsed fills one shard's exact-text
// index to capacity with spellings of one query, refreshes the oldest
// through the fast path, and registers one text more: the least recently
// used text is dropped, and every other text keeps its fast path.
func TestTextIndexEvictsLeastRecentlyUsed(t *testing.T) {
	svc := New(Options{CacheSize: 64})
	defer closeService(t, svc)
	e, _, err := svc.minimizeEntry(context.Background(), pattern.MustParse("a*/b"))
	if err != nil {
		t.Fatal(err)
	}
	sh := svc.shards[0]
	capacity := sh.textIdx.Cap()
	var texts []string
	for i := 0; len(texts) <= capacity; i++ {
		if src := strings.Repeat(" ", i) + "a*/b"; shardFor(svc, src) == sh {
			texts = append(texts, src)
		}
	}
	for _, src := range texts[:capacity] {
		svc.registerText(src, e)
	}
	if _, _, ok := svc.hitText(texts[0]); !ok {
		t.Fatal("registered text missed")
	}
	svc.registerText(texts[capacity], e) // evicts texts[1]
	if n := sh.textIdx.Len(); n != capacity {
		t.Fatalf("text index holds %d, want its capacity %d", n, capacity)
	}
	if _, _, ok := svc.hitText(texts[1]); ok {
		t.Error("the least recently used text survived an insert past capacity")
	}
	for i, src := range texts {
		if _, _, ok := svc.hitText(src); !ok && i != 1 {
			t.Errorf("text %d lost its fast path", i)
		}
	}
}

// TestShardedCacheCloseHammer interleaves everything the sharded tier
// does at once — lookups, misses, evictions (tiny per-shard capacity),
// write-behind enqueues and drains, exact-text fast-path reads and
// registrations over HTTP, and a Close racing the lot. Run under -race
// by `make race-service`; the assertions are liveness and error
// discipline, the detector checks the locking.
func TestShardedCacheCloseHammer(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(Options{CacheSize: 8, Store: st})
	h := NewHandler(svc, HandlerOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	queries := make([]*pattern.Pattern, 32)
	for i := range queries {
		queries[i] = pattern.MustParse(fmt.Sprintf("h%d*[/a, //b]", i))
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				_, _, err := svc.Minimize(ctx, queries[rng.Intn(len(queries))])
				if err != nil {
					if err == ErrClosed {
						return
					}
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Two clients hammer the HTTP path with repeating text, racing the
	// text index's reads and registrations against the evictions above.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"query": "h%d*[/a, //b]"}`, g)
			for i := 0; i < 200; i++ {
				resp, err := srv.Client().Post(srv.URL+"/minimize", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode == 503 {
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	snap := svc.Stats()
	if snap.Evictions == 0 {
		t.Error("capacity-8 cache under a 32-query hammer evicted nothing")
	}
	if _, _, err := svc.Minimize(ctx, queries[0]); err != ErrClosed {
		t.Errorf("Minimize after Close returned %v, want ErrClosed", err)
	}
}

// TestMetricsSubMillisecondBuckets pins satellite S1 end to end: the
// /metrics histogram exposes sub-millisecond bucket bounds, and a burst
// of cached hits lands in real interior buckets — under the old 1-2-5
// three-decade layout every µs-scale hit collapsed into the first
// bucket and p50/p99 degenerated to its bound.
func TestMetricsSubMillisecondBuckets(t *testing.T) {
	svc := New(Options{})
	defer svc.Close(context.Background())
	q := pattern.MustParse("m*[/a, //b[/c]]")
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, _, err := svc.Minimize(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(NewHandler(svc, HandlerOptions{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var subMillisBounds int
	firstBucket, total := int64(-1), int64(-1)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "tpq_request_duration_seconds_bucket{le=") {
			rest := strings.TrimPrefix(line, "tpq_request_duration_seconds_bucket{le=\"")
			end := strings.Index(rest, "\"")
			boundStr, countStr := rest[:end], strings.TrimSpace(rest[end+2:])
			count, err := strconv.ParseInt(countStr, 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if firstBucket < 0 {
				firstBucket = count
			}
			if boundStr != "+Inf" {
				bound, err := strconv.ParseFloat(boundStr, 64)
				if err != nil {
					t.Fatalf("bad bound in %q: %v", line, err)
				}
				if bound < 0.001 {
					subMillisBounds++
				}
			}
		}
		if strings.HasPrefix(line, "tpq_request_duration_seconds_count ") {
			total, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if subMillisBounds < 10 {
		t.Errorf("only %d sub-millisecond bucket bounds on /metrics, want a real sub-ms ladder", subMillisBounds)
	}
	if total < 50 {
		t.Fatalf("histogram counted %d requests, want >= 50", total)
	}
	if firstBucket >= total {
		t.Errorf("all %d requests collapsed into the first bucket — cached hits are not resolved by the layout", total)
	}
}
