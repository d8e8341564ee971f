package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/store"
	"tpq/internal/xpath"
)

// goldenConstraints are the constraints testdata/stored_json.golden was
// written under: its records' keys carry this set's fingerprint.
func goldenConstraints() *ics.Set { return ics.MustParseSet("x !-> y") }

// goldenJSONRecords returns the two records of testdata/stored_json.golden,
// the JSON layout the store used before version-1 records: "a*[/b, /b]"
// minimized to a*/b (tick 1) and the unsatisfiable "x*/y" (tick 3).
func goldenJSONRecords(t *testing.T) [][]byte {
	t.Helper()
	data, err := os.ReadFile("testdata/stored_json.golden")
	if err != nil {
		t.Fatal(err)
	}
	recs := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(recs) != 2 {
		t.Fatalf("golden file holds %d records, want 2", len(recs))
	}
	return recs
}

// record is one raw store record and the query whose canon keys it.
type record struct {
	query string
	val   []byte
}

// putRecords writes raw records into the store under dir, keyed as a
// service with cs would key their queries, and closes the store.
func putRecords(t *testing.T, dir string, cs *ics.Set, recs ...record) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Constraints: cs, Store: st, WarmStart: 0})
	for _, r := range recs {
		if err := st.Put(svc.storeKey(pattern.MustParse(r.query).Canonical()), r.val); err != nil {
			t.Fatal(err)
		}
	}
	closeService(t, svc)
	st.Close()
}

// TestStoreJSONRecordGolden pins what becomes of the JSON records written
// by earlier versions: they do not decode, rank as tick 0, are not
// warm-started, and their queries are served as computed misses whose
// fresh version-1 records overwrite them.
func TestStoreJSONRecordGolden(t *testing.T) {
	recs := goldenJSONRecords(t)
	want := []struct {
		query, output string
		unsat         bool
	}{
		{"a*[/b, /b]", "a*/b", false},
		{"x*/y", "x*/y", true},
	}
	for i, rec := range recs {
		if e, err := decodeStored(rec); err == nil {
			t.Errorf("record %d decodes to %+v, want an error", i, e)
		}
		if got := storedTick(rec); got != 0 {
			t.Errorf("record %d: tick %d, want 0", i, got)
		}
	}

	dir := t.TempDir()
	putRecords(t, dir, goldenConstraints(), record{want[0].query, recs[0]}, record{want[1].query, recs[1]})

	svc := New(Options{Constraints: goldenConstraints(), Store: openStore(t, dir), WarmStart: -1})
	if snap := svc.Stats(); snap.WarmStarted != 0 || snap.StoreErrors != 2 {
		t.Fatalf("WarmStarted=%d StoreErrors=%d, want 0, 2", snap.WarmStarted, snap.StoreErrors)
	}
	if got := svc.writeTick.Load(); got != 0 {
		t.Errorf("write tick seeded at %d, want 0", got)
	}
	for _, w := range want {
		out, rep, err := svc.Minimize(context.Background(), pattern.MustParse(w.query))
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit || out.String() != w.output || rep.Unsatisfiable != w.unsat {
			t.Errorf("%s: served %s with %+v, want a computed %s", w.query, out, rep, w.output)
		}
	}
	if snap := svc.Stats(); snap.StoreHits != 0 || snap.StoreErrors != 4 || snap.Minimizations != 2 {
		t.Errorf("StoreHits=%d StoreErrors=%d Minimizations=%d, want 0, 4, 2", snap.StoreHits, snap.StoreErrors, snap.Minimizations)
	}
	closeService(t, svc) // drains the write-behind queue

	// The recomputed entries replaced the JSON records.
	svc = New(Options{Constraints: goldenConstraints(), Store: openStore(t, dir), WarmStart: -1})
	defer closeService(t, svc)
	if snap := svc.Stats(); snap.WarmStarted != 2 || snap.StoreErrors != 0 {
		t.Fatalf("after rewrite: WarmStarted=%d StoreErrors=%d, want 2, 0", snap.WarmStarted, snap.StoreErrors)
	}
}

// TestStoreMixedRecordsWarmStart pins warm-start recency across a store
// holding both layouts: JSON records, which rank as tick 0 and do not
// decode, and version-1 records at ticks 2 and 4. Warm-starting two
// entries must pick the two version-1 records; warm-starting all of them
// counts the JSON records as store errors and skips them.
func TestStoreMixedRecordsWarmStart(t *testing.T) {
	cs := goldenConstraints()
	recs := goldenJSONRecords(t)
	v1 := func(src string, tick uint64) record {
		e, _, err := New(Options{Constraints: cs}).minimizeEntry(context.Background(), pattern.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return record{src, encodeStored(e, tick)}
	}
	dir := t.TempDir()
	putRecords(t, dir, cs, record{"a*[/b, /b]", recs[0]}, v1("c*[//d, //d]", 2), record{"x*/y", recs[1]}, v1("e*/f", 4))

	svc := New(Options{Constraints: cs, Store: openStore(t, dir), WarmStart: 2})
	if snap := svc.Stats(); snap.WarmStarted != 2 || snap.StoreErrors != 0 {
		t.Fatalf("WarmStarted=%d StoreErrors=%d, want 2, 0", snap.WarmStarted, snap.StoreErrors)
	}
	if got := svc.writeTick.Load(); got != 4 {
		t.Errorf("write tick seeded at %d, want 4", got)
	}
	for _, src := range []string{"e*/f", "c*[//d, //d]"} {
		if _, rep, err := svc.Minimize(context.Background(), pattern.MustParse(src)); err != nil || !rep.CacheHit {
			t.Errorf("%s: rep %+v err %v, want a warm-started hit", src, rep, err)
		}
	}
	if snap := svc.Stats(); snap.Hits != 2 || snap.StoreHits != 0 {
		t.Errorf("Hits=%d StoreHits=%d, want 2, 0: ticks 4 and 2 must be the ones preloaded", snap.Hits, snap.StoreHits)
	}
	closeService(t, svc)

	svc = New(Options{Constraints: cs, Store: openStore(t, dir), WarmStart: -1})
	defer closeService(t, svc)
	if snap := svc.Stats(); snap.WarmStarted != 2 || snap.StoreErrors != 2 {
		t.Fatalf("warm-start all: WarmStarted=%d StoreErrors=%d, want 2, 2", snap.WarmStarted, snap.StoreErrors)
	}
}

// v1Record hand-assembles a version-1 record from its fields.
func v1Record(tick uint64, ints [5]uint64, canon, text string) []byte {
	b := []byte{storedV1}
	b = binary.AppendUvarint(b, tick)
	for _, v := range ints {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(canon)))
	b = append(b, canon...)
	b = binary.AppendUvarint(b, uint64(len(text)))
	return append(b, text...)
}

// TestStoreCorruptV1Records checks that a version-1 record that does not
// decode to a servable entry is rejected, and that the service counts it
// in StoreErrors and serves the request as a miss, never as the stored
// answer.
func TestStoreCorruptV1Records(t *testing.T) {
	q := pattern.MustParse("a*[/b, /b]")
	canon := q.Canonical()
	good := v1Record(5, [5]uint64{3, 2, 1, 0, 0}, canon, "a*/b")
	if e, err := decodeStored(good); err != nil || e.text != "a*/b" {
		t.Fatalf("well-formed record: %+v, %v", e, err)
	}
	cases := []struct {
		name string
		rec  []byte
	}{
		{"truncated uvarint", []byte{storedV1, 0x85}},
		{"length past the end", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte(nil), good...), 0)},
		{"unknown version", append([]byte{2}, good[1:]...)},
		{"unknown flag", v1Record(5, [5]uint64{3, 2, 1, 0, 2}, canon, "a*/b")},
		{"text that does not parse", v1Record(5, [5]uint64{3, 2, 1, 0, 0}, canon, "a*/[b")},
		{"text that re-renders differently", v1Record(5, [5]uint64{3, 3, 0, 0, 0}, canon, "a*[/c, /b]")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if e, err := decodeStored(c.rec); err == nil {
				t.Fatalf("decodeStored accepted %q as %+v", c.rec, e)
			}
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seed := New(Options{Store: st, WarmStart: 0})
			if err := st.Put(seed.storeKey(canon), c.rec); err != nil {
				t.Fatal(err)
			}
			closeService(t, seed)
			st.Close()

			svc := New(Options{Store: openStore(t, dir), WarmStart: -1})
			defer closeService(t, svc)
			if snap := svc.Stats(); snap.WarmStarted != 0 || snap.StoreErrors != 1 {
				t.Fatalf("warm start: WarmStarted=%d StoreErrors=%d, want 0, 1", snap.WarmStarted, snap.StoreErrors)
			}
			out, rep, err := svc.Minimize(context.Background(), q.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if rep.CacheHit || out.String() != "a*/b" {
				t.Errorf("served %s with %+v, want a computed a*/b", out, rep)
			}
			if snap := svc.Stats(); snap.StoreErrors != 2 || snap.Minimizations != 1 {
				t.Errorf("StoreErrors=%d Minimizations=%d, want 2, 1", snap.StoreErrors, snap.Minimizations)
			}
		})
	}
}

// TestStoreRecordAnchoredXPath pins that an anchored XPath entry, whose
// output carries the synthetic #document root, survives the store: its
// text parses back.
func TestStoreRecordAnchoredXPath(t *testing.T) {
	p, err := xpath.FromXPath("/a[b]/b")
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := New(Options{}).minimizeEntry(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStored(encodeStored(e, 1))
	if err != nil {
		t.Fatalf("record of %s: %v", e.text, err)
	}
	if got.text != e.text || got.canon != e.canon || got.rep != e.rep {
		t.Errorf("decoded %q %+v, want %q %+v", got.text, got.rep, e.text, e.rep)
	}
}

// FuzzDecodeStored: decodeStored never panics, and any record it accepts
// re-encodes to a record that decodes to the same canon, text and report.
func FuzzDecodeStored(f *testing.F) {
	q := pattern.MustParse("a*[/b, //c]")
	f.Add(encodeStored(&entry{canon: q.Canonical(), out: q, rep: Report{InputSize: 3, OutputSize: 3}}, 9))
	f.Add(v1Record(1, [5]uint64{3, 2, 1, 0, 1}, "a*(/b,/b)", "a*/b"))
	// A JSON record of earlier versions: rejected.
	f.Add([]byte(`{"canon":"a*(/b,/b)","output":{"type":"a","star":true,"children":[{"type":"b","edge":"/"}]},"inputSize":3,"outputSize":2,"cdmRemoved":1,"acimRemoved":0,"tick":1}`))
	f.Add([]byte{storedV1, 0x85})
	f.Fuzz(func(t *testing.T, val []byte) {
		e, err := decodeStored(val)
		if err != nil {
			return
		}
		again, err := decodeStored(encodeStored(e, storedTick(val)))
		if err != nil {
			t.Fatalf("re-encoded record of %q does not decode: %v", val, err)
		}
		if again.canon != e.canon || again.text != e.text || again.rep != e.rep {
			t.Fatalf("re-encode changed the entry: %q %q %+v vs %q %q %+v",
				e.canon, e.text, e.rep, again.canon, again.text, again.rep)
		}
	})
}
