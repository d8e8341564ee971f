package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// referenceMinimize is the unserved pipeline — exactly what the top-level
// MinimizeReport does — used as the oracle for the cached service.
func referenceMinimize(p *pattern.Pattern, closed *ics.Set) (*pattern.Pattern, Report) {
	rep := Report{InputSize: p.Size()}
	pre := p.Clone()
	st := cdm.MinimizeInPlace(pre, closed)
	rep.CDMRemoved = st.Removed
	out, ast := acim.MinimizeWithStats(pre, closed)
	rep.ACIMRemoved = ast.Removed
	rep.OutputSize = out.Size()
	rep.Unsatisfiable = oracle.UnsatisfiableUnder(p, closed)
	return out, rep
}

func testConstraints() *ics.Set {
	return ics.MustParseSet(
		"t0 -> t1", "t1 => t2", "t2 ~ t3", "t3 -> t4", "t0 => t5",
	)
}

// TestCachedMatchesUncachedProperty is the cache soundness property: over
// 1k seeded random queries, the cached service and the direct pipeline
// produce isomorphic outputs and identical reports — on the first
// (computing) request and again on the repeat (cache-hit) request.
func TestCachedMatchesUncachedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cs := testConstraints()
	closed := cs.Closure()
	svc := New(Options{Constraints: cs, Workers: 2})
	ctx := context.Background()

	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		q := genquery.Random(rng, 6+rng.Intn(12), 6)
		want, wantRep := referenceMinimize(q, closed)

		for pass, wantHit := range []bool{false, true} {
			// The first pass may legitimately hit if an isomorphic query was
			// generated earlier; only the repeat pass is asserted to hit.
			got, rep, err := svc.Minimize(ctx, q)
			if err != nil {
				t.Fatalf("query %d pass %d: %v", i, pass, err)
			}
			if !pattern.Isomorphic(got, want) {
				t.Fatalf("query %d pass %d: service %s != reference %s (input %s)",
					i, pass, got, want, q)
			}
			hit := rep.CacheHit || rep.Merged
			rep.CacheHit, rep.Merged = false, false
			if rep != wantRep {
				t.Fatalf("query %d pass %d: report %+v != reference %+v", i, pass, rep, wantRep)
			}
			if wantHit && !hit {
				t.Fatalf("query %d: repeat request did not hit the cache", i)
			}
		}
	}

	snap := svc.Stats()
	if snap.Requests != int64(2*n) {
		t.Errorf("requests = %d, want %d", snap.Requests, 2*n)
	}
	if snap.Hits+snap.Misses+snap.InflightMerges != snap.Requests {
		t.Errorf("hits(%d) + misses(%d) + merges(%d) != requests(%d)",
			snap.Hits, snap.Misses, snap.InflightMerges, snap.Requests)
	}
	if snap.Minimizations != snap.Misses {
		t.Errorf("minimizations(%d) != misses(%d) with no errors", snap.Minimizations, snap.Misses)
	}
	if snap.Hits < int64(n) {
		t.Errorf("hits = %d, want at least %d (every repeat)", snap.Hits, n)
	}
}

// TestCacheReturnsPrivateClones checks a served pattern can be mutated
// without corrupting the cache.
func TestCacheReturnsPrivateClones(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	q := pattern.MustParse("a*[/b, /b/c]")
	first, _, err := svc.Minimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	canon := first.Canonical()
	first.Root.Type = "mutated" // caller scribbles on its copy
	second, rep, err := svc.Minimize(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Fatalf("second request should hit the cache")
	}
	if second.Canonical() != canon {
		t.Errorf("cache corrupted by caller mutation: %s", second)
	}
}

// TestInflightMerge asserts the singleflight contract: K concurrent
// identical requests run exactly one minimization, with the other K-1
// provably merged into it (inflight-merge counter).
func TestInflightMerge(t *testing.T) {
	const k = 8
	svc := New(Options{Constraints: testConstraints()})
	// Hold the leader's computation open until every follower has joined.
	svc.computeGate = func() {
		deadline := time.Now().Add(5 * time.Second)
		for svc.stats.merges.Load() < k-1 {
			if time.Now().After(deadline) {
				t.Error("followers never joined the flight")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	q := pattern.MustParse("t0*[/t1//t2, /t1[/t4], //t2]")
	var wg sync.WaitGroup
	outs := make([]*pattern.Pattern, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := svc.Minimize(context.Background(), q)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < k; i++ {
		if outs[i] == nil || !pattern.Isomorphic(outs[0], outs[i]) {
			t.Fatalf("request %d diverged: %s vs %s", i, outs[i], outs[0])
		}
	}
	snap := svc.Stats()
	if snap.Minimizations != 1 {
		t.Errorf("minimizations = %d, want exactly 1 for %d identical concurrent requests",
			snap.Minimizations, k)
	}
	if snap.InflightMerges != k-1 {
		t.Errorf("inflight merges = %d, want %d", snap.InflightMerges, k-1)
	}
	if snap.Requests != k {
		t.Errorf("requests = %d, want %d", snap.Requests, k)
	}
}

// TestConcurrentHammer drives one service instance from many goroutines
// over a workload with heavy repetition — the -race gate for the cache,
// the flight group and the stats.
func TestConcurrentHammer(t *testing.T) {
	svc := New(Options{Constraints: testConstraints(), CacheSize: 16})
	rng := rand.New(rand.NewSource(7))
	var sources []string
	for i := 0; i < 24; i++ {
		sources = append(sources, genquery.Random(rng, 5+rng.Intn(8), 5).String())
	}
	const goroutines = 16
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				q := pattern.MustParse(sources[rng.Intn(len(sources))])
				if _, _, err := svc.Minimize(context.Background(), q); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if i%10 == 0 {
					svc.Stats() // concurrent observation must be race-free
				}
			}
		}(g)
	}
	wg.Wait()
	snap := svc.Stats()
	if snap.Requests != goroutines*perG {
		t.Errorf("requests = %d, want %d", snap.Requests, goroutines*perG)
	}
	if snap.Errors != 0 {
		t.Errorf("errors = %d, want 0", snap.Errors)
	}
	if snap.CacheLen > 16 {
		t.Errorf("cache grew past capacity: %d", snap.CacheLen)
	}
	if snap.Evictions == 0 {
		t.Errorf("24 distinct queries through a 16-entry cache should evict")
	}
}

// TestMinimizeBatch checks order preservation, per-query reports and
// batch-internal deduplication.
func TestMinimizeBatch(t *testing.T) {
	svc := New(Options{Constraints: testConstraints(), Workers: 4})
	srcs := []string{
		"t0*[/t1, /t1/t2]",
		"t0*[/t1, /t1/t2]", // duplicate of 0
		"t3*[/t4, //t4]",
		"t0*[/t1, /t1/t2]", // duplicate again
		"t2*//t0",
	}
	queries := make([]*pattern.Pattern, len(srcs))
	for i, s := range srcs {
		queries[i] = pattern.MustParse(s)
	}
	outs, reps, err := svc.MinimizeBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	closed := testConstraints().Closure()
	for i, q := range queries {
		want, _ := referenceMinimize(q, closed)
		if !pattern.Isomorphic(outs[i], want) {
			t.Errorf("batch[%d]: %s != %s", i, outs[i], want)
		}
		if reps[i].OutputSize != want.Size() {
			t.Errorf("batch[%d]: report size %d != %d", i, reps[i].OutputSize, want.Size())
		}
	}
	if snap := svc.Stats(); snap.Minimizations != 3 {
		t.Errorf("minimizations = %d, want 3 (distinct queries; duplicates dedup)", snap.Minimizations)
	}
}

// TestUnsatisfiableCached checks the unsatisfiability verdict is computed
// under the closed set and survives caching.
func TestUnsatisfiableCached(t *testing.T) {
	// The raw set lacks the contradicting form; its closure derives
	// a !=> c from a ~ b and b !=> c.
	cs := ics.MustParseSet("a ~ b", "b !=> c")
	svc := New(Options{Constraints: cs})
	q := pattern.MustParse("a*//c")
	for pass := 0; pass < 2; pass++ {
		_, rep, err := svc.Minimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Unsatisfiable {
			t.Errorf("pass %d: a*//c should be unsatisfiable under the closed set", pass)
		}
	}
	if snap := svc.Stats(); snap.Unsatisfiable != 1 {
		t.Errorf("unsat counter = %d, want 1 (second request cached)", snap.Unsatisfiable)
	}
}

// TestGracefulClose checks shutdown semantics: inflight requests drain,
// later requests fail fast, health flips.
func TestGracefulClose(t *testing.T) {
	svc := New(Options{})
	if svc.Closing() {
		t.Fatal("fresh service reports closing")
	}
	started := make(chan struct{})
	svc.computeGate = func() {
		close(started)
		time.Sleep(50 * time.Millisecond) // keep one request inflight across Close
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := svc.Minimize(context.Background(), pattern.MustParse("a*[/b, /b]")); err != nil {
			t.Errorf("inflight request should complete through shutdown: %v", err)
		}
	}()
	<-started
	if err := svc.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if !svc.Closing() {
		t.Error("Closing() false after Close")
	}
	if _, _, err := svc.Minimize(context.Background(), pattern.MustParse("a*")); err != ErrClosed {
		t.Errorf("post-close request: err = %v, want ErrClosed", err)
	}
}

// TestContextCancelled checks a dead context is rejected and counted.
func TestContextCancelled(t *testing.T) {
	svc := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := svc.Minimize(ctx, pattern.MustParse("a*[/b, /b]")); err == nil {
		t.Fatal("cancelled context should fail")
	}
	if snap := svc.Stats(); snap.Errors != 1 {
		t.Errorf("errors = %d, want 1", snap.Errors)
	}
}

// TestCacheDisabled checks CacheSize < 0 runs every request through the
// pipeline.
func TestCacheDisabled(t *testing.T) {
	svc := New(Options{CacheSize: -1})
	q := pattern.MustParse("a*[/b, /b]")
	for i := 0; i < 3; i++ {
		out, rep, err := svc.Minimize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit {
			t.Errorf("request %d: cache hit with caching disabled", i)
		}
		if out.Size() != 2 {
			t.Errorf("request %d: output %s, want a*/b", i, out)
		}
	}
	if snap := svc.Stats(); snap.Minimizations != 3 {
		t.Errorf("minimizations = %d, want 3", snap.Minimizations)
	}
}

// TestEmptyPatternRejected covers the input guard.
func TestEmptyPatternRejected(t *testing.T) {
	svc := New(Options{})
	if _, _, err := svc.Minimize(context.Background(), nil); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, _, err := svc.Minimize(context.Background(), &pattern.Pattern{}); err == nil {
		t.Error("rootless pattern accepted")
	}
}

func TestStatsSnapshotShape(t *testing.T) {
	var st Stats
	st.initHistograms()
	st.lat.Observe(3 * time.Microsecond)
	st.lat.Observe(30 * time.Microsecond)
	st.lat.Observe(3 * time.Millisecond)
	snap := st.snapshot()
	if snap.LatencyCount != 3 {
		t.Fatalf("count = %d", snap.LatencyCount)
	}
	if snap.LatencyP50Micros != 30 { // 30µs lands exactly on a log-linear bound
		t.Errorf("p50 = %v, want 30", snap.LatencyP50Micros)
	}
	if snap.LatencyP99Micros != 3000 { // 3ms lands exactly on a bound too
		t.Errorf("p99 = %v, want 3000", snap.LatencyP99Micros)
	}
	total := int64(0)
	for _, b := range snap.LatencyBuckets {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d", total)
	}

	// Past the last bound (1s), a quantile is the exact observed maximum,
	// and the bucket is the +Inf one (leMicros -1).
	st.lat.Observe(2500 * time.Millisecond)
	st.phase[trace.CIM].Observe(1500 * time.Millisecond)
	snap = st.snapshot()
	if snap.LatencyP99Micros != 2.5e6 {
		t.Errorf("p99 past the last bound = %v, want the maximum 2.5e6", snap.LatencyP99Micros)
	}
	if last := snap.LatencyBuckets[len(snap.LatencyBuckets)-1]; last.LEMicros != -1 || last.Count != 1 {
		t.Errorf("last bucket %+v, want the +Inf bucket holding 1", last)
	}
	if ph := snap.Phases["cim"]; ph.Count != 1 || ph.P99Micros != 1.5e6 || ph.MeanMicros != 1.5e6 {
		t.Errorf("cim phase %+v, want one observation with p99 and mean 1.5e6", ph)
	}
}

func TestFingerprintSeparatesConstraintSets(t *testing.T) {
	// Same query, different constraints: the cache key must separate them.
	q := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	plain := New(Options{})
	constrained := New(Options{Constraints: ics.MustParseSet("Section => Paragraph")})
	outPlain, _, _ := plain.Minimize(context.Background(), q)
	outCons, _, _ := constrained.Minimize(context.Background(), q)
	if pattern.Isomorphic(outPlain, outCons) {
		t.Fatalf("test premise broken: constraint should change the minimal form")
	}
	if plain.Fingerprint() == constrained.Fingerprint() {
		t.Errorf("different constraint sets share a fingerprint")
	}
}

func ExampleService() {
	svc := New(Options{Constraints: ics.MustParseSet("Section => Paragraph")})
	q := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	out, rep, _ := svc.Minimize(context.Background(), q)
	fmt.Printf("%s (%d -> %d nodes)\n", out, rep.InputSize, rep.OutputSize)
	_, rep, _ = svc.Minimize(context.Background(), q)
	fmt.Printf("cache hit: %v\n", rep.CacheHit)
	// Output:
	// Articles/Article*/Section (5 -> 3 nodes)
	// cache hit: true
}
