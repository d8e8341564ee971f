package bench

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpq/internal/benchjson"
	"tpq/internal/service"
	"tpq/internal/workload"
)

// scaleDistinct is the mix size of the service-scale figure: small
// enough that the whole working set is cache-resident at every shard
// count, large enough that requests spread across shards.
const scaleDistinct = 16

// JSONServiceScale pins the concurrency scaling of the serving hot
// path: aggregate per-request latency (wall time / total requests) of a
// Zipf-distributed mix driven by W concurrent workers, for W in
// {1,2,4,8}, on two series —
//
//   - hot: the service is pre-warmed over the whole mix, so every
//     request is a cache hit. This is the series the sharded cache
//     exists for: on a multi-core box the aggregate ns/op must fall as
//     W grows (the shards keep the workers off one mutex); on a
//     single-core box it stays flat, and the figure records that
//     honestly rather than simulating cores it does not have.
//   - mixed: a fresh service per run, so each distinct query's first
//     touch pays the pipeline and everything after it hits — the
//     cold/hot blend a freshly deployed replica serves.
//
// GOMAXPROCS is pinned to W for the measurement (and restored), so the
// figure reflects scheduler parallelism, not just goroutine count.
func JSONServiceScale(opts Options) benchjson.File {
	workers := []int{1, 2, 4, 8}
	ops := 8192
	if opts.Quick {
		workers = []int{1, 4}
		ops = 2048
	}
	mix := workload.Queries(scaleDistinct, 11)
	ctx := context.Background()
	var results []benchjson.Result

	for _, w := range workers {
		prev := runtime.GOMAXPROCS(w)

		warm := service.New(service.Options{})
		for _, q := range mix {
			if _, _, err := warm.Minimize(ctx, q.Pattern); err != nil {
				panic(err)
			}
		}
		hot := Measure(opts, Timed(func() {
			driveScale(ctx, warm, mix, w, ops)
		}))
		results = append(results, benchjson.Result{
			Name:   "service-scale/hot/workers=" + strconv.Itoa(w),
			Figure: "service-scale",
			Params: map[string]string{
				"workers": strconv.Itoa(w), "distinct": strconv.Itoa(scaleDistinct),
				"zipf_s": "1.2", "ops": strconv.Itoa(ops),
			},
			NsPerOp:  float64(hot.Nanoseconds()) / float64(ops),
			Counters: map[string]int64{"ops": int64(ops)},
		})

		mixed := Measure(opts, Timed(func() {
			fresh := service.New(service.Options{})
			driveScale(ctx, fresh, mix, w, ops)
		}))
		results = append(results, benchjson.Result{
			Name:   "service-scale/mixed/workers=" + strconv.Itoa(w),
			Figure: "service-scale",
			Params: map[string]string{
				"workers": strconv.Itoa(w), "distinct": strconv.Itoa(scaleDistinct),
				"zipf_s": "1.2", "ops": strconv.Itoa(ops),
			},
			NsPerOp:  float64(mixed.Nanoseconds()) / float64(ops),
			Counters: map[string]int64{"ops": int64(ops)},
		})

		runtime.GOMAXPROCS(prev)
	}
	return benchjson.New("service-scale", results)
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

// ServiceScale is the table form of the figure for `tpqbench -fig
// service-scale`: aggregate throughput per worker count, hot and mixed.
func ServiceScale(opts Options) *Table {
	t := &Table{
		Title:   "Serving hot path: aggregate latency vs concurrent workers (sharded cache)",
		XLabel:  "Workers",
		YLabel:  "ns/request",
		Comment: "hot = pre-warmed Zipf mix (every request a cache hit); mixed = fresh service per run (first touches pay the pipeline). On multi-core boxes hot ns/request falls as workers grow.",
	}
	f := JSONServiceScale(opts)
	for _, r := range f.Results {
		series := "hot"
		if strings.HasPrefix(r.Name, "service-scale/mixed/") {
			series = "mixed"
		}
		w, _ := strconv.Atoi(r.Params["workers"])
		t.Add(series, float64(w), time.Duration(r.NsPerOp))
	}
	return t
}
