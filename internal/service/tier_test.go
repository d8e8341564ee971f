package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"tpq/internal/pattern"
	"tpq/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func closeService(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSecondTier is the persistence round trip inside one process:
// a computed entry is written behind to the store, and a fresh service
// over the same store (no warm-start) serves it as a cache hit without
// recomputing.
func TestStoreSecondTier(t *testing.T) {
	dir := t.TempDir()
	q := pattern.MustParse("a*[/b, /b]")

	svc1 := New(Options{Store: openStore(t, dir)})
	out1, rep, err := svc1.Minimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("first minimization reported a cache hit")
	}
	closeService(t, svc1) // drains the write-behind queue
	if snap := svc1.Stats(); snap.StorePuts != 1 || snap.StoreDropped != 0 {
		t.Fatalf("after close: StorePuts=%d StoreDropped=%d, want 1, 0", snap.StorePuts, snap.StoreDropped)
	}

	// Same store, new service, cold LRU: the store answers the miss.
	svc2 := New(Options{Store: openStore(t, dir), WarmStart: 0})
	defer closeService(t, svc2)
	out2, rep, err := svc2.Minimize(context.Background(), q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Error("store-tier hit not reported as a cache hit")
	}
	if out1.Canonical() != out2.Canonical() {
		t.Errorf("persisted result differs: %s vs %s", out1, out2)
	}
	snap := svc2.Stats()
	if snap.Minimizations != 0 {
		t.Errorf("Minimizations = %d, want 0 (store answered)", snap.Minimizations)
	}
	if snap.StoreHits != 1 {
		t.Errorf("StoreHits = %d, want 1", snap.StoreHits)
	}
	if snap.WarmStarted != 0 {
		t.Errorf("WarmStarted = %d, want 0 (warm-start disabled)", snap.WarmStarted)
	}

	// Promoted into the LRU: the repeat is a plain LRU hit.
	if _, rep, err = svc2.Minimize(context.Background(), q.Clone()); err != nil || !rep.CacheHit {
		t.Fatalf("repeat: rep=%+v err=%v", rep, err)
	}
	if snap := svc2.Stats(); snap.Hits != 1 || snap.StoreHits != 1 {
		t.Errorf("after repeat: Hits=%d StoreHits=%d, want 1, 1", snap.Hits, snap.StoreHits)
	}
}

// TestWarmStart restarts the service over a populated store and checks
// the LRU is pre-filled: the first request is already an LRU hit, no
// store read, no pipeline run.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	queries := []string{"a*[/b, /b]", "c*[//d, //d]", "e*/f"}

	svc1 := New(Options{Store: openStore(t, dir)})
	for _, src := range queries {
		if _, _, err := svc1.Minimize(context.Background(), pattern.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	closeService(t, svc1)

	svc2 := New(Options{Store: openStore(t, dir), WarmStart: -1})
	defer closeService(t, svc2)
	if snap := svc2.Stats(); snap.WarmStarted != int64(len(queries)) {
		t.Fatalf("WarmStarted = %d, want %d", snap.WarmStarted, len(queries))
	}
	for _, src := range queries {
		_, rep, err := svc2.Minimize(context.Background(), pattern.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.CacheHit {
			t.Errorf("warm-started query %q not served as a cache hit", src)
		}
	}
	snap := svc2.Stats()
	if snap.Hits != int64(len(queries)) || snap.StoreHits != 0 || snap.Minimizations != 0 {
		t.Errorf("after warm-start: Hits=%d StoreHits=%d Minimizations=%d, want %d, 0, 0",
			snap.Hits, snap.StoreHits, snap.Minimizations, len(queries))
	}
}

// TestWarmStartBounded checks the limit: only the n most recently
// written entries are preloaded.
func TestWarmStartBounded(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(Options{Store: openStore(t, dir)})
	for i := 0; i < 5; i++ {
		q := pattern.MustParse(fmt.Sprintf("q%d*/x", i))
		if _, _, err := svc1.Minimize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	closeService(t, svc1)

	svc2 := New(Options{Store: openStore(t, dir), WarmStart: 2})
	defer closeService(t, svc2)
	if snap := svc2.Stats(); snap.WarmStarted != 2 {
		t.Fatalf("WarmStarted = %d, want 2", snap.WarmStarted)
	}
	// The most recently written query is among the preloaded ones.
	_, rep, err := svc2.Minimize(context.Background(), pattern.MustParse("q4*/x"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || svc2.Stats().Hits != 1 {
		t.Error("most recent entry missing from the warm-started LRU")
	}
}

// TestWarmStartRecencyAcrossCompact pins warm-start recency across
// Compact, which rewrites the snapshot in key order: only the persisted
// write ticks still rank the entries by when they were computed.
func TestWarmStartRecencyAcrossCompact(t *testing.T) {
	dir := t.TempDir()
	minimize := func(svc *Service, src string) Report {
		t.Helper()
		_, rep, err := svc.Minimize(context.Background(), pattern.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// restart closes svc, compacts and closes its store, and reopens the
	// directory under a fresh service that warm-starts limit entries.
	restart := func(svc *Service, st *store.Store, limit int) (*Service, *store.Store) {
		t.Helper()
		closeService(t, svc)
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		st.Close()
		st = openStore(t, dir)
		return New(Options{Store: st, WarmStart: limit}), st
	}

	st := openStore(t, dir)
	svc := New(Options{Store: st})
	for i := 0; i < 5; i++ {
		minimize(svc, fmt.Sprintf("q%d*/x", i))
	}
	svc, st = restart(svc, st, 2)
	for _, src := range []string{"q3*/x", "q4*/x"} {
		if !minimize(svc, src).CacheHit {
			t.Errorf("%s, among the 2 newest entries, was not served from the cache", src)
		}
	}
	if snap := svc.Stats(); snap.Hits != 2 || snap.StoreHits != 0 {
		t.Fatalf("Hits=%d StoreHits=%d, want 2, 0: q3 and q4 must be warm-started LRU hits", snap.Hits, snap.StoreHits)
	}

	minimize(svc, "q5*/x")
	svc, st = restart(svc, st, 1)
	minimize(svc, "q5*/x")
	if snap := svc.Stats(); snap.WarmStarted != 1 || snap.Hits != 1 || snap.StoreHits != 0 {
		t.Errorf("WarmStarted=%d Hits=%d StoreHits=%d, want 1, 1, 0: q5, the newest entry, must be the one preloaded",
			snap.WarmStarted, snap.Hits, snap.StoreHits)
	}

	// With warm-start off the startup pass still seeds the write tick,
	// so an entry computed then outranks every older one.
	svc, st = restart(svc, st, 0)
	minimize(svc, "q6*/x")
	svc, _ = restart(svc, st, 1)
	defer closeService(t, svc)
	minimize(svc, "q6*/x")
	if snap := svc.Stats(); snap.WarmStarted != 1 || snap.Hits != 1 || snap.StoreHits != 0 {
		t.Errorf("WarmStarted=%d Hits=%d StoreHits=%d, want 1, 1, 0: q6, computed under WarmStart 0, must be the one preloaded",
			snap.WarmStarted, snap.Hits, snap.StoreHits)
	}
}

// TestOneWriteBehindGoroutine pins the write-behind fan-in: a service
// with a store starts exactly one drain goroutine however many cache
// shards it has, and Close stops it.
func TestOneWriteBehindGoroutine(t *testing.T) {
	// Counted by creator, not by function: a goroutine that has not run
	// yet shows a compiler wrapper as its top frame.
	drains := func() int {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 2)
		return strings.Count(buf.String(), "created by tpq/internal/service.New ")
	}
	before := drains()
	svc := New(Options{Store: openStore(t, t.TempDir())})
	if len(svc.shards) < 2 {
		t.Fatalf("%d cache shards; the test needs several", len(svc.shards))
	}
	if got := drains() - before; got != 1 {
		t.Errorf("%d write-behind goroutines across %d shards, want 1", got, len(svc.shards))
	}
	closeService(t, svc)
	if got := drains() - before; got != 0 {
		t.Errorf("%d write-behind goroutines left after Close, want 0", got)
	}
}

// TestStoreRoundTripCodec pins the persisted encoding: encode → decode
// is the identity on everything the serving layer needs. The entry is
// not finalized, so the encoder must render its output itself.
func TestStoreRoundTripCodec(t *testing.T) {
	q := pattern.MustParse("a*[/b, //c]")
	e := &entry{
		canon: q.Canonical(),
		out:   q,
		rep: Report{
			InputSize: 4, OutputSize: 3, CDMRemoved: 1, ACIMRemoved: 0, Unsatisfiable: true,
		},
	}
	val := encodeStored(e, 7)
	if val[0] != storedV1 || storedTick(val) != 7 {
		t.Fatalf("record %q: want version %d and tick 7", val, storedV1)
	}
	got, err := decodeStored(val)
	if err != nil {
		t.Fatal(err)
	}
	if got.canon != e.canon || got.out.Canonical() != q.Canonical() || got.rep != e.rep || got.text != q.String() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
	for _, bad := range [][]byte{nil, []byte("{}"), []byte(`{"canon":"x"}`), []byte(`{"canon":"x","output":{"bad":1}}`)} {
		if _, err := decodeStored(bad); err == nil {
			t.Errorf("decodeStored(%q) accepted", bad)
		}
	}
}
