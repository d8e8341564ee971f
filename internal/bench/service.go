package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tpq/internal/benchjson"
	"tpq/internal/service"
	"tpq/internal/store"
	"tpq/internal/trace"
	"tpq/internal/workload"
)

// serviceFigure pins the serving layer on the batch mix of x distinct
// queries: the steady-state latency of a hot cached query and of the
// uncached pipeline on the same query (the headline speedup of the
// cache), plus a cold batch over the whole mix. A cache hit runs no
// pipeline phase, so the hot result has no phase breakdown.
var serviceFigure = Figure{
	ID:     "service",
	Title:  "Serving layer: cached hit vs uncached pipeline (40-node query) and a cold batch of the mix",
	XLabel: "Distinct",
	YLabel: "time",
	Shape:  "hot ≥10x below uncached; cold-batch pays the pipeline once per distinct query",
	Full:   []int{8},
	Quick:  []int{8},
	Pinned: true,
	Run: func(opts Options, x int) []benchjson.Result {
		distinct, rawCS := batchWorkload(x)
		q := distinct[0]
		ctx := context.Background()
		mustMinimize := func(svc *service.Service) {
			if _, _, err := svc.Minimize(ctx, q); err != nil {
				panic(err)
			}
		}
		params := func(path string) map[string]string {
			return map[string]string{"distinct": strconv.Itoa(x), "path": path}
		}

		svc := service.New(service.Options{Constraints: rawCS})
		mustMinimize(svc)
		hot := measure(opts, untraced(func() { mustMinimize(svc) }))
		eng := service.New(service.Options{Constraints: rawCS, CacheSize: -1})
		uncached := measure(opts, untraced(func() { mustMinimize(eng) }))
		cold := measure(opts, untraced(func() {
			fresh := service.New(service.Options{Constraints: rawCS})
			if _, _, err := fresh.MinimizeBatch(ctx, distinct); err != nil {
				panic(err)
			}
		}))
		return []benchjson.Result{
			hot.result("service/hot", "hot", float64(x), params("cache-hit"), nil),
			uncached.result("service/uncached", "uncached", float64(x), params("pipeline"), nil),
			cold.result("service/cold-batch", "cold-batch", float64(x), params("cold-batch"), nil),
		}
	},
}

// serviceWarmRestartFigure pins the restart story of the persistent
// tier: the time for a freshly constructed service to serve its whole
// working set of x queries again — cold (no store: every distinct query
// pays the pipeline) versus warm (reopening a populated store with
// warm-start: every request is already a cache hit). The warm
// measurement starts at store.Open, so it covers the real restart path —
// snapshot load, log replay, warm-start preload.
var serviceWarmRestartFigure = Figure{
	ID:     "service-warm-restart",
	Title:  "Serving restart: serve the working set again without and with a warm-started store",
	XLabel: "Queries",
	YLabel: "restart+serve time",
	Shape:  "warm ≈ cold here: the 8 queries are 3 distinct 40-node shapes, so the pipeline a warm start avoids costs about as much as opening the store",
	Full:   []int{8},
	Quick:  []int{8},
	Pinned: true,
	Run: func(opts Options, x int) []benchjson.Result {
		distinct, rawCS := batchWorkload(x)
		ctx := context.Background()
		dir, err := os.MkdirTemp("", "tpqbench-store-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		// Seed the store with a clean shutdown's worth of state: every
		// query minimized, the write-behind queue drained, the log folded
		// into the snapshot.
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			panic(err)
		}
		seed := service.New(service.Options{Constraints: rawCS, Store: st})
		if _, _, err := seed.MinimizeBatch(ctx, distinct); err != nil {
			panic(err)
		}
		if err := seed.Close(ctx); err != nil {
			panic(err)
		}
		if err := st.Compact(); err != nil {
			panic(err)
		}
		if err := st.Close(); err != nil {
			panic(err)
		}

		serve := func(svc *service.Service, wantHits bool) {
			for _, q := range distinct {
				_, rep, err := svc.Minimize(ctx, q)
				if err != nil {
					panic(err)
				}
				if wantHits && !rep.CacheHit {
					panic("bench: warm restart missed the cache")
				}
			}
		}
		cold := measure(opts, untraced(func() { serve(service.New(service.Options{Constraints: rawCS}), false) }))
		var warmStarted int64
		warm := measure(opts, func() (time.Duration, *trace.Trace) {
			start := time.Now()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				panic(err)
			}
			fresh := service.New(service.Options{Constraints: rawCS, Store: st, WarmStart: -1})
			serve(fresh, true)
			d := time.Since(start)
			warmStarted = fresh.Stats().WarmStarted
			if err := fresh.Close(ctx); err != nil {
				panic(err)
			}
			if err := st.Close(); err != nil {
				panic(err)
			}
			return d, nil
		})
		params := func(path string) map[string]string {
			return map[string]string{"queries": strconv.Itoa(x), "path": path}
		}
		return []benchjson.Result{
			cold.result("service-warm-restart/cold", "cold", float64(x), params("cold-start"), nil),
			warm.result("service-warm-restart/warm", "warm", float64(x), params("warm-start"),
				map[string]int64{"warm_started": warmStarted}),
		}
	},
}

// scaleDistinct is the mix size of the service-scale figure: small
// enough that the whole working set is cache-resident at every shard
// count, large enough that requests spread across shards.
const scaleDistinct = 16

// serviceScaleFigure pins the concurrency scaling of the serving hot
// path: aggregate per-request latency (wall time / total requests) of a
// Zipf-distributed mix driven by x concurrent workers, on two series —
//
//   - hot: the service is pre-warmed over the whole mix, so every
//     request is a cache hit. This is the series the sharded cache
//     exists for: on a multi-core box the aggregate ns/op must fall as
//     the workers grow (the shards keep them off one mutex); on a
//     single-core box it stays flat, and the figure records that
//     honestly rather than simulating cores it does not have.
//   - mixed: a fresh service per run, so each distinct query's first
//     touch pays the pipeline and everything after it hits — the
//     cold/hot blend a freshly deployed replica serves.
//
// GOMAXPROCS is pinned to x for the measurement (and restored), so the
// figure reflects scheduler parallelism, not just goroutine count.
var serviceScaleFigure = Figure{
	ID:     "service-scale",
	Title:  "Serving hot path: aggregate latency vs concurrent workers (sharded cache)",
	XLabel: "Workers",
	YLabel: "time per request",
	Shape:  "hot = pre-warmed Zipf mix (every request a cache hit); mixed = fresh service per run (first touches pay the pipeline). On multi-core boxes hot ns/request falls as workers grow.",
	Full:   []int{1, 2, 4, 8},
	Quick:  []int{1, 4},
	Pinned: true,
	Run: func(opts Options, x int) []benchjson.Result {
		ops := 8192
		if opts.Quick {
			ops = 2048
		}
		mix := workload.Queries(scaleDistinct, 11)
		ctx := context.Background()
		prev := runtime.GOMAXPROCS(x)
		defer runtime.GOMAXPROCS(prev)

		warm := service.New(service.Options{})
		for _, q := range mix {
			if _, _, err := warm.Minimize(ctx, q.Pattern); err != nil {
				panic(err)
			}
		}
		hot := measure(opts, untraced(func() { driveScale(ctx, warm, mix, x, ops) }))
		mixed := measure(opts, untraced(func() { driveScale(ctx, service.New(service.Options{}), mix, x, ops) }))
		params := map[string]string{
			"workers": strconv.Itoa(x), "distinct": strconv.Itoa(scaleDistinct),
			"zipf_s": "1.2", "ops": strconv.Itoa(ops),
		}
		var out []benchjson.Result
		for _, s := range []struct {
			series string
			m      measured
		}{{"hot", hot}, {"mixed", mixed}} {
			r := s.m.result(fmt.Sprintf("service-scale/%s/workers=%d", s.series, x), s.series, float64(x),
				params, map[string]int64{"ops": int64(ops)})
			r.NsPerOp /= float64(ops)
			r.AllocsPerOp /= float64(ops)
			out = append(out, r)
		}
		return out
	},
}

// driveScale issues ops requests split across w workers, each drawing
// its share from its own deterministic Zipf sampler (samplers are not
// concurrent-safe, and per-worker seeding keeps the request streams
// identical run to run).
func driveScale(ctx context.Context, svc *service.Service, mix []workload.Query, w, ops int) {
	var wg sync.WaitGroup
	per := ops / w
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			sampler := workload.NewSampler(len(mix), 1.2, 0, int64(1000+wi))
			for i := 0; i < per; i++ {
				rank, _ := sampler.Next()
				if _, _, err := svc.Minimize(ctx, mix[rank].Pattern); err != nil {
					panic(err)
				}
			}
		}(wi)
	}
	wg.Wait()
}
