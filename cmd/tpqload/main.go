// Command tpqload is an open-loop load generator for a running tpqd: it
// fires requests at a fixed arrival rate (scheduled on the clock, never
// gated on responses, so queueing delay is measured instead of hidden —
// no coordinated omission), drawn from a Zipf-distributed mix of
// distinct queries, and reports per-rate latency quantiles from
// log-linear histograms.
//
// Usage:
//
//	tpqload -addr http://localhost:8080                # default grid
//	tpqload -qps 100,400,1600 -duration 10s            # explicit grid
//	tpqload -patterns 64 -zipf-s 1.3 -match-frac 0.2   # mix shape
//	tpqload -json load.json                            # tpq-bench/1 output
//
// Each -qps level runs as one phase: a warmup slice at the same rate
// (excluded from the stats), then the measured window. The mix is
// deterministic in -seed — identical flags replay an identical request
// stream. Latency is measured from the request's scheduled arrival time
// to the last response byte, so a server that falls behind the offered
// rate shows the backlog in its tail quantiles.
//
// The JSON output (-json) is the tpq-bench/1 schema: one p50 and one
// p99 result per rate ("tpqload/mix/qps=400/p99"), with sent/ok/error
// counts and the achieved rate as counters — comparable across runs
// with tpqbench -compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpq/internal/benchjson"
	"tpq/internal/hdr"
	"tpq/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadLayout spans 1µs to 10s: network round trips on the left edge,
// deep overload backlogs on the right.
var loadLayout = hdr.Layout{MinNanos: 1000, Decades: 7, Steps: 9}

// phaseResult is the outcome of one measured rate level.
type phaseResult struct {
	qps     int
	sent    int64
	ok      int64
	errors  int64
	dropped int64
	elapsed time.Duration
	hist    *hdr.Histogram
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpqload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the tpqd to drive")
	qpsList := fs.String("qps", "100,200,400", "comma-separated offered rates, one phase each")
	duration := fs.Duration("duration", 5*time.Second, "measured window per phase")
	warmup := fs.Duration("warmup", 1*time.Second, "warmup per phase at the same rate, excluded from stats")
	patterns := fs.Int("patterns", 32, "distinct queries in the mix")
	zipfS := fs.Float64("zipf-s", 1.2, "Zipf skew over the query ranks (<=1 for a uniform mix)")
	matchFrac := fs.Float64("match-frac", 0, "fraction of requests routed to /match instead of /minimize")
	seed := fs.Int64("seed", 1, "mix and sampler seed (identical flags replay identical streams)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request timeout (a timeout counts as an error)")
	maxInflight := fs.Int("max-inflight", 1024, "open-loop safety valve: arrivals past this many outstanding requests are dropped and counted")
	jsonOut := fs.String("json", "", "write the results as tpq-bench/1 JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rates, err := parseRates(*qpsList)
	if err != nil {
		fmt.Fprintf(stderr, "tpqload: %v\n", err)
		return 2
	}

	mix := workload.Queries(*patterns, *seed)
	minBodies := make([][]byte, len(mix))
	matchBodies := make([][]byte, len(mix))
	for i, q := range mix {
		b, err := json.Marshal(map[string]string{"query": q.Text})
		if err != nil {
			fmt.Fprintf(stderr, "tpqload: %v\n", err)
			return 1
		}
		minBodies[i] = b
		matchBodies[i] = b // same wire shape; the path differs
	}
	client := &http.Client{}

	var phases []phaseResult
	for _, qps := range rates {
		fmt.Fprintf(stdout, "tpqload: phase qps=%d warmup=%s duration=%s\n", qps, warmup, duration)
		ph := runPhase(client, *addr, qps, *warmup, *duration, *timeout, *maxInflight,
			workload.NewSampler(len(mix), *zipfS, *matchFrac, *seed+int64(qps)),
			minBodies, matchBodies)
		phases = append(phases, ph)
	}

	printTable(stdout, phases)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, phases, *patterns, *zipfS, *matchFrac, *duration); err != nil {
			fmt.Fprintf(stderr, "tpqload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "tpqload: wrote %s\n", *jsonOut)
	}
	for _, ph := range phases {
		if ph.ok == 0 {
			fmt.Fprintf(stderr, "tpqload: phase qps=%d completed no requests\n", ph.qps)
			return 1
		}
	}
	return 0
}

func parseRates(s string) ([]int, error) {
	var rates []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -qps entry %q", part)
		}
		rates = append(rates, n)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-qps names no rates")
	}
	return rates, nil
}

// runPhase drives one rate level: a single dispatcher draws the request
// stream (keeping the sampler single-threaded and deterministic) and
// schedules each arrival on the clock; workers measure from that
// scheduled instant, so time spent waiting behind a saturated server is
// part of the reported latency.
func runPhase(client *http.Client, addr string, qps int, warmup, duration, timeout time.Duration,
	maxInflight int, sampler *workload.Sampler, minBodies, matchBodies [][]byte) phaseResult {

	ph := phaseResult{qps: qps, hist: hdr.New(loadLayout)}
	interval := time.Duration(int64(time.Second) / int64(qps))
	total := int64((warmup + duration) / interval)
	warmN := int64(warmup / interval)

	var wg sync.WaitGroup
	slots := make(chan struct{}, maxInflight)
	var mu sync.Mutex // guards the non-histogram counters
	start := time.Now()
	for i := int64(0); i < total; i++ {
		rank, isMatch := sampler.Next()
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		measured := i >= warmN
		select {
		case slots <- struct{}{}:
		default:
			if measured {
				mu.Lock()
				ph.dropped++
				mu.Unlock()
			}
			continue
		}
		path, body := "/minimize", minBodies[rank]
		if isMatch {
			path, body = "/match", matchBodies[rank]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			err := issue(client, addr+path, body, timeout)
			lat := time.Since(scheduled)
			if !measured {
				return
			}
			mu.Lock()
			ph.sent++
			if err != nil {
				ph.errors++
			} else {
				ph.ok++
			}
			mu.Unlock()
			ph.hist.Observe(lat)
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start) - warmup
	if ph.elapsed <= 0 {
		ph.elapsed = duration
	}
	return ph
}

// issue POSTs one request and drains the response; any transport error
// or non-2xx status is an error.
func issue(client *http.Client, url string, body []byte, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func printTable(w io.Writer, phases []phaseResult) {
	fmt.Fprintf(w, "%8s %8s %6s %6s %7s %10s %10s %10s %10s\n",
		"qps", "sent", "err", "drop", "ach", "p50", "p90", "p99", "max")
	for _, ph := range phases {
		achieved := float64(ph.ok+ph.errors) / ph.elapsed.Seconds()
		fmt.Fprintf(w, "%8d %8d %6d %6d %7.0f %10s %10s %10s %10s\n",
			ph.qps, ph.sent, ph.errors, ph.dropped, achieved,
			ph.hist.Quantile(0.50), ph.hist.Quantile(0.90), ph.hist.Quantile(0.99), ph.hist.Max())
	}
}

// writeJSON emits the phases in the tpq-bench/1 schema so load curves
// compare with tpqbench -compare like any other pinned figure.
func writeJSON(path string, phases []phaseResult, patterns int, zipfS, matchFrac float64, duration time.Duration) error {
	var results []benchjson.Result
	for _, ph := range phases {
		params := map[string]string{
			"qps":        strconv.Itoa(ph.qps),
			"patterns":   strconv.Itoa(patterns),
			"zipf_s":     strconv.FormatFloat(zipfS, 'g', -1, 64),
			"match_frac": strconv.FormatFloat(matchFrac, 'g', -1, 64),
			"duration":   duration.String(),
		}
		counters := map[string]int64{
			"sent":    ph.sent,
			"ok":      ph.ok,
			"errors":  ph.errors,
			"dropped": ph.dropped,
			"achieved_qps": int64(float64(ph.ok+ph.errors) /
				ph.elapsed.Seconds()),
		}
		base := "tpqload/mix/qps=" + strconv.Itoa(ph.qps)
		results = append(results,
			benchjson.Result{
				Name:    base + "/p50",
				Figure:  "tpqload",
				Params:  params,
				NsPerOp: float64(ph.hist.Quantile(0.50).Nanoseconds()),
			},
			benchjson.Result{
				Name:     base + "/p99",
				Figure:   "tpqload",
				Params:   params,
				NsPerOp:  float64(ph.hist.Quantile(0.99).Nanoseconds()),
				Counters: counters,
			})
	}
	data, err := json.MarshalIndent(benchjson.New("tpqload", results), "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
