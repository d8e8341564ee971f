package service

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/store"
)

// nullResponseWriter discards the response, reusing one header map, so
// the hit-path benchmark measures the serving path rather than the
// recorder harness.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestHitPathAllocs pins the cache-hit paths at zero allocations: the
// in-process entry lookup (key build in pooled scratch, shard pick, LRU
// hit) and the exact-text probe of the HTTP fast path (text index, then
// the result shard). BenchmarkServiceHitAllocs measures the same paths
// and the HTTP round trip around them.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under -race")
	}
	const src = "a*[/b, //c[/d], /b/e]"
	p := pattern.MustParse(src)
	svc := New(Options{})
	defer closeService(t, svc)
	ctx := context.Background()
	e, _, err := svc.minimizeEntry(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	svc.registerText(src, e)
	entry := testing.AllocsPerRun(100, func() {
		if _, rep, err := svc.minimizeEntry(ctx, p); err != nil || !rep.CacheHit {
			t.Fatalf("minimizeEntry: %+v, %v; want a hit", rep, err)
		}
	})
	text := testing.AllocsPerRun(100, func() {
		if _, _, ok := svc.hitText(src); !ok {
			t.Fatal("hitText missed a registered text")
		}
	})
	if entry != 0 || text != 0 {
		t.Errorf("hit paths allocate: minimizeEntry %v, hitText %v per call; want 0", entry, text)
	}
}

// BenchmarkServiceHitAllocs pins the allocation count of the cached-hit
// path at two layers: the in-process entry lookup (minimizeEntry — key
// build, shard pick, LRU hit), the public Minimize API (which must keep
// cloning), and the full HTTP round trip including request decode and
// the pre-rendered response write. bench_results.txt records the
// before/after counts for the pooled-arena change.
func BenchmarkServiceHitAllocs(b *testing.B) {
	const src = "a*[/b, //c[/d], /b/e]"
	p := pattern.MustParse(src)
	svc := New(Options{})
	defer svc.Close(context.Background())
	ctx := context.Background()
	if _, _, err := svc.Minimize(ctx, p); err != nil {
		b.Fatal(err)
	}

	b.Run("entry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.minimizeEntry(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("minimize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.Minimize(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
	})

	h := NewHandler(svc, HandlerOptions{})
	body := `{"query": "` + src + `"}`
	w := &nullResponseWriter{h: make(http.Header)}
	req, err := http.NewRequest(http.MethodPost, "/minimize", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("http", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req.Body = io.NopCloser(strings.NewReader(body))
			h.ServeHTTP(w, req)
		}
	})
}

// BenchmarkServiceMissAllocs pins the cost of a cold /minimize miss: each
// iteration sends a never-seen 18-22-node query over the publishing
// types, under the publishing constraints plus Title !-> Section, through
// the full HTTP handler with a store open — parse, canonical key, the
// CDM+ACIM engine, the unsatisfiability check, the store record and the
// response. bench_results.txt records its before/after counts.
func BenchmarkServiceMissAllocs(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		cs := data.PublishingConstraints()
		cs.Add(ics.ForbidChild("Title", "Section"))
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		svc := New(Options{Constraints: cs, Store: st})
		defer svc.Close(context.Background())
		h := NewHandler(svc, HandlerOptions{})

		types := []pattern.Type{"Title", "Articles", "Article", "Title", "Author", "LastName", "FirstName", "Section", "Paragraph"}
		rng := rand.New(rand.NewSource(1))
		seen := make(map[string]bool, b.N)
		bodies := make([]string, 0, b.N)
		for len(bodies) < b.N {
			nodes := []*pattern.Node{pattern.NewNode(types[rng.Intn(len(types))])}
			for size := 18 + rng.Intn(5); len(nodes) < size; {
				child := pattern.NewNode(types[rng.Intn(len(types))])
				nodes = append(nodes, nodes[rng.Intn(len(nodes))].AddChild(pattern.EdgeKind(rng.Intn(2)), child))
			}
			nodes[rng.Intn(len(nodes))].Star = true
			q := pattern.New(nodes[0])
			if canon := q.Canonical(); !seen[canon] {
				seen[canon] = true
				bodies = append(bodies, `{"query": "`+q.String()+`"}`)
			}
		}
		w := &nullResponseWriter{h: make(http.Header)}
		req, err := http.NewRequest(http.MethodPost, "/minimize", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Body = io.NopCloser(strings.NewReader(bodies[i]))
			h.ServeHTTP(w, req)
		}
		b.StopTimer()
		if got := svc.Stats().Minimizations; got != int64(b.N) {
			b.Fatalf("%d minimizations for %d requests: every request must be a computed miss", got, b.N)
		}
	})
}
