package service

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/oracle"
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

// replyWriter keeps the last response's status and body in reused
// storage, so a benchmark can check every reply without allocating.
type replyWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *replyWriter) Header() http.Header { return w.h }
func (w *replyWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *replyWriter) WriteHeader(code int) { w.code = code }

// replyCount returns the "count" field of a /match reply, -1 when it has
// none.
func replyCount(body []byte) int {
	const key = `"count":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	n, digits := 0, 0
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n, digits = n*10+int(c-'0'), digits+1
	}
	if digits == 0 {
		return -1
	}
	return n
}

// BenchmarkServiceMatch measures a warmed /match request through the
// full HTTP handler: a seeded publishing forest of 3,416 nodes
// under the publishing constraints, the minimization served from the
// cache, then compile and evaluation. One sub-benchmark per query shape:
// an inner child off the root-to-output path, a leaf off the path, a
// bare path, and a union. Every reply's count must equal the answer
// count oracle.BindingsMap gives the query as sent, computed once.
func BenchmarkServiceMatch(b *testing.B) {
	f := data.GeneratePublishing(rand.New(rand.NewSource(24)), 200)
	svc := New(Options{Constraints: data.PublishingConstraints()})
	defer svc.Close(context.Background())
	h := NewHandler(svc, HandlerOptions{Forest: f})
	for _, c := range []struct{ name, query string }{
		{"inner", "Article[/Author/FirstName]//Paragraph*"},
		{"leaf", "Author[/FirstName]/LastName*"},
		{"path", "Articles/Article/Section/Section*"},
		{"union", "or(Author/FirstName*, Section/Section*[/Paragraph])"},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, err := pattern.ParseDisjunctive(c.query)
			if err != nil {
				b.Fatal(err)
			}
			answers := make(map[*data.Node]bool)
			for _, p := range d.Disjuncts {
				for _, v := range oracle.BindingsMap(p, f)[p.OutputNode()] {
					answers[v] = true
				}
			}
			want := len(answers)
			if want == 0 {
				b.Fatalf("%s has no answers over the forest", c.query)
			}
			body := `{"query": "` + c.query + `"}`
			w := &replyWriter{h: make(http.Header)}
			req, err := http.NewRequest(http.MethodPost, "/match", nil)
			if err != nil {
				b.Fatal(err)
			}
			send := func() {
				req.Body = io.NopCloser(strings.NewReader(body))
				w.code, w.body = http.StatusOK, w.body[:0]
				h.ServeHTTP(w, req)
				if got := replyCount(w.body); w.code != http.StatusOK || got != want {
					b.Fatalf("%s: status %d, count %d, want %d: %s", c.query, w.code, got, want, w.body)
				}
			}
			send() // the minimization misses once; every timed request hits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
		})
	}
}
