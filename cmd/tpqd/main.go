// Command tpqd is the minimization daemon: a long-lived HTTP server that
// minimizes tree pattern queries under a fixed set of integrity
// constraints, caching results by canonical form so hot queries cost a
// hash lookup instead of the full CDM+ACIM pipeline (see
// internal/service).
//
// Usage:
//
//	tpqd [-addr :8080] [-f constraints.txt] [-xml doc.xml]
//	     [-cache N] [-workers N] [-timeout 5s] [-grace 10s]
//	     [-maxdoc N] [-slowlog 100ms] [-debug-addr 127.0.0.1:6060]
//	     [-store dir] [-warm-start N]
//
// Endpoints:
//
//	POST /minimize   {"query": "a*[/b, //c]"} — or {"xpath": ...} or
//	                 {"queries": [...]} for a parallelized batch
//	POST /match      minimize (through the cache), then stream-evaluate
//	                 against the -xml document or an inline "document"
//	                 (capped at -maxdoc nodes); {"stream": true} answers
//	                 as NDJSON lines, {"limit": n} truncates
//	GET  /stats      cache and pipeline counters, latency histogram
//	GET  /metrics    Prometheus text exposition: counters, gauges, and
//	                 per-phase duration histograms
//	                 (parse/chase/cdm/acim/cim/compact)
//	GET  /healthz    liveness; 503 once shutdown has begun
//	GET  /debug/vars the same counters in expvar form
//
// -slowlog D turns on the structured slow-query log: every pipeline run
// that takes at least D is one JSON line on stderr (pattern fingerprint,
// per-phase breakdown; see service.SlowQuery). -debug-addr serves
// net/http/pprof on a second listener, kept off the public address so
// profiling endpoints are never exposed by default.
//
// -store dir persists the minimization cache (internal/store): computed
// entries are written behind to an append-log + snapshot KV store, an
// LRU miss reads the store before computing, and a restarted daemon
// warm-starts from it (-warm-start bounds how many entries are
// preloaded), so previously minimized queries are served as cache hits
// immediately.
//
// SIGINT/SIGTERM begin a graceful shutdown: the listener drains for up to
// -grace, then inflight minimizations are awaited.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/service"
	"tpq/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	consFile := fs.String("f", "", "constraint file (one per line, # comments)")
	xmlPath := fs.String("xml", "", "XML document served by /match")
	cacheSize := fs.Int("cache", service.DefaultCacheSize, "query cache capacity (negative disables)")
	workers := fs.Int("workers", 0, "batch and union minimization workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request minimization budget")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period")
	maxBatch := fs.Int("maxbatch", 1024, "maximum queries per batch request")
	maxDocNodes := fs.Int("maxdoc", 100_000, "maximum node count of an inline /match document")
	slowlog := fs.Duration("slowlog", 0, "log pipeline runs at least this slow as JSON lines on stderr (0 disables)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this extra address (empty disables)")
	storeDir := fs.String("store", "", "persist the minimization cache in this directory (empty disables; ignored with -cache < 0)")
	warmStart := fs.Int("warm-start", -1, "store entries to preload into the cache at startup (-1 = up to cache capacity, 0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cs := ics.NewSet()
	if *consFile != "" {
		if err := cs.AddFile(*consFile); err != nil {
			fmt.Fprintln(stderr, "tpqd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "tpqd: loaded %d constraints from %s\n", cs.Len(), *consFile)
	}
	var forest *data.Forest
	if *xmlPath != "" {
		f, err := os.Open(*xmlPath)
		if err != nil {
			fmt.Fprintln(stderr, "tpqd:", err)
			return 1
		}
		forest, err = data.ParseXML(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "tpqd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "tpqd: loaded %s: %d nodes\n", *xmlPath, forest.Size())
	}

	var st *store.Store
	if *storeDir != "" && *cacheSize >= 0 {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "tpqd:", err)
			return 1
		}
		defer st.Close()
		stStats := st.Stats()
		fmt.Fprintf(stdout, "tpqd: store %s: %d entries (%d from snapshot, %d replayed", *storeDir,
			stStats.Entries, stStats.SnapshotRecords, stStats.ReplayedRecords)
		if stStats.TornBytes > 0 {
			fmt.Fprintf(stdout, ", %d torn bytes discarded", stStats.TornBytes)
		}
		fmt.Fprintln(stdout, ")")
	}

	svc := service.New(service.Options{
		Constraints:      cs,
		Workers:          *workers,
		CacheSize:        *cacheSize,
		SlowLogThreshold: *slowlog,
		SlowLog:          stderr,
		Store:            st,
		WarmStart:        *warmStart,
	})
	publishExpvar(svc)
	if *slowlog > 0 {
		fmt.Fprintf(stdout, "tpqd: slow-query log on: threshold %v\n", *slowlog)
	}
	if st != nil {
		fmt.Fprintf(stdout, "tpqd: warm-started %d cache entries\n", svc.Stats().WarmStarted)
	}

	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(svc, service.HandlerOptions{
		Forest:      forest,
		Timeout:     *timeout,
		MaxBatch:    *maxBatch,
		MaxDocNodes: *maxDocNodes,
	}))
	mux.Handle("/debug/vars", expvar.Handler())

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, "tpqd:", err)
			return 1
		}
		debugSrv = &http.Server{Handler: debugMux(), ReadHeaderTimeout: 10 * time.Second}
		go debugSrv.Serve(debugLn)
		fmt.Fprintf(stdout, "tpqd: pprof on http://%s/debug/pprof/\n", debugLn.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "tpqd:", err)
		return 1
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "tpqd: listening on http://%s (constraints: %d, closure: %d, cache: %d, workers: %d)\n",
		ln.Addr(), cs.Len(), svc.Constraints().Len(), *cacheSize, svc.Stats().Workers)

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "tpqd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "tpqd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "tpqd: draining connections:", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := svc.Close(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "tpqd: draining minimizations:", err)
	}
	if st != nil {
		// Fold the write-behind log into the snapshot so the next start
		// replays nothing.
		if err := st.Compact(); err != nil {
			fmt.Fprintln(stderr, "tpqd: compacting store:", err)
		}
	}
	snap := svc.Stats()
	hitRate := 0.0
	if snap.Requests > 0 {
		hitRate = float64(snap.Hits) / float64(snap.Requests) * 100
	}
	fmt.Fprintf(stdout, "tpqd: served %d requests (%.1f%% cache hits, %d minimizations, %d merged)\n",
		snap.Requests, hitRate, snap.Minimizations, snap.InflightMerges)
	return 0
}

// debugMux is the pprof surface served on -debug-addr: its own mux
// (never the DefaultServeMux, never the public listener), registered
// explicitly so importing net/http/pprof cannot leak handlers anywhere
// else.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// publishExpvar exposes the service counters under the "tpqd" expvar.
// Publish panics on duplicate names, so repeated runs in one process
// (tests) keep the first registration.
var publishOnce sync.Once

func publishExpvar(svc *service.Service) {
	publishOnce.Do(func() {
		expvar.Publish("tpqd", expvar.Func(func() interface{} { return svc.Stats() }))
	})
}
