// Command perfbench is the repository benchmark. For one seeded workload
// it spawns a fresh tpqd, drives it over loopback with a lean closed-loop
// client, checks every reply against answers computed beforehand through
// the root tpq facade, and prints the end-to-end metrics. With -trace 1
// it also replays the same request stream in-process, timing each layer
// through its public functions, and prints the per-layer metrics instead.
//
// Build and run it through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Any wrong reply makes the run exit 1. See README.md for the workloads,
// the metrics and how each is taken.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// clients is the closed loop's connection count: one per vCPU of the
// reference host. setups is the number of tpqd set-ups per run; setup_s
// is their median.
const (
	clients = 2
	setups  = 21
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-hits, cold-minimize or match-forest")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "measured window of the live run, in seconds")
	traced := fs.Int("trace", 0, "0: print end-to-end metrics; 1: also run the traced replay and print per-layer metrics")
	bin := fs.String("tpqd", "", "tpqd binary to spawn")
	dir := fs.String("dir", "", "work directory for constraint files, forests and stores (emptied first)")
	spans := fs.String("spans", "", "with -trace 1, write the traced replay's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *dir == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -tpqd, -dir, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	in, err := buildInputs(*name, *seed, *seconds)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d: %d distinct requests, stream %d, inputs digest %s\n",
		in.name, *seed, len(in.reqs), len(in.stream), in.digest())
	t0 := time.Now()
	if err := computeExpectations(in); err != nil {
		return fail(fmt.Errorf("computing expected answers: %w", err))
	}
	fmt.Fprintf(stdout, "perfbench: expected answers computed in %.2fs\n", time.Since(t0).Seconds())

	if err := os.RemoveAll(*dir); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(*dir)
	files, err := writeFiles(*dir, in)
	if err != nil {
		return fail(err)
	}
	// Collect the garbage of input generation now, so this process's
	// collector does not run beside the timed set-ups.
	runtime.GC()
	live, err := liveRun(*bin, *dir, files, in, time.Duration(*seconds)*time.Second)
	if err != nil {
		return fail(err)
	}
	live.report(stdout)

	res := result{
		Correct:   live.load.failed() == 0,
		Attempted: live.load.attempted,
		Failed:    live.load.failed(),
	}
	if *traced == 0 {
		res.Metrics = live.endToEnd()
	} else {
		tr, err := tracedRun(*dir, in, time.Duration(*seconds)*time.Second, *spans)
		if err != nil {
			return fail(err)
		}
		tr.report(stdout)
		res.Correct = res.Correct && tr.failed == 0
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Metrics = perLayer(live, tr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// daemonFiles are the paths of the inputs tpqd reads.
type daemonFiles struct {
	constraints, xml string
}

func writeFiles(dir string, in *inputs) (daemonFiles, error) {
	var f daemonFiles
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, err
	}
	if in.constraints != "" {
		f.constraints = filepath.Join(dir, "constraints.txt")
		if err := os.WriteFile(f.constraints, []byte(in.constraints), 0o644); err != nil {
			return f, err
		}
	}
	if in.xml != nil {
		f.xml = filepath.Join(dir, "forest.xml")
		if err := os.WriteFile(f.xml, in.xml, 0o644); err != nil {
			return f, err
		}
	}
	return f, nil
}

// daemonArgs are tpqd's flags for a workload; store, when set, is a
// fresh -store directory.
func daemonArgs(f daemonFiles, store string) []string {
	var args []string
	if f.constraints != "" {
		args = append(args, "-f", f.constraints)
	}
	if f.xml != "" {
		args = append(args, "-xml", f.xml)
	}
	if store != "" {
		args = append(args, "-store", store)
	}
	return args
}

// liveResult is what one live run measured.
type liveResult struct {
	in       *inputs
	setups   []time.Duration
	load     *loadResult
	lat      []float64 // latencies of the window's successes, sorted, µs
	from, to sample    // CPU counters at the window's start and end
	rssMiB   float64   // tpqd VmHWM once in.rssAfter requests completed
	rssLate  bool      // the window closed before in.rssAfter requests
	before   *counters
	after    *counters
}

// sample is one reading of the CPU counters: tpqd's and this process's
// CPU ticks, and the host's steal and total jiffies.
type sample struct {
	daemonTicks, selfTicks int64
	steal, jiffies         int64
}

func readSample(pid string) (sample, error) {
	var s sample
	var err1, err2, err3 error
	s.daemonTicks, err1 = procCPUTicks(pid)
	s.selfTicks, err2 = procCPUTicks("self")
	s.steal, s.jiffies, err3 = hostCPU()
	return s, firstErr(err1, err2, err3)
}

// liveRun sets tpqd up several times (spawn, ready, warm pass) and
// measures a closed-loop window against one instance. Half the set-ups
// run before the window and half after, so one disturbed moment of the
// host does not skew them all.
func liveRun(bin, dir string, files daemonFiles, in *inputs, window time.Duration) (*liveResult, error) {
	lr := &liveResult{in: in}
	setUpOnly := func(n int) error {
		for len(lr.setups) < n {
			d, err := lr.setUp(bin, dir, files)
			if err != nil {
				return err
			}
			d.stop()
		}
		return nil
	}
	if err := setUpOnly(setups / 2); err != nil {
		return nil, err
	}
	d, err := lr.setUp(bin, dir, files)
	if err != nil {
		return nil, err
	}
	err = lr.measure(d, window)
	d.stop()
	if err != nil {
		return nil, err
	}
	if err := setUpOnly(setups); err != nil {
		return nil, err
	}
	return lr, nil
}

// setUp spawns a tpqd (a fresh store on cold-minimize), waits for its
// listener and runs the warm pass, recording how long that took.
func (lr *liveResult) setUp(bin, dir string, files daemonFiles) (*daemon, error) {
	store := ""
	if lr.in.name == "cold-minimize" {
		store = filepath.Join(dir, "store-"+strconv.Itoa(len(lr.setups)))
	}
	t0 := time.Now()
	d, err := startDaemon(bin, daemonArgs(files, store))
	if err != nil {
		return nil, err
	}
	if err := warmPass(d.addr, lr.in); err != nil {
		d.stop()
		return nil, err
	}
	lr.setups = append(lr.setups, time.Since(t0))
	return d, nil
}

// measure runs the closed-loop window against d, reading the CPU
// counters at its start and end and scraping d's counters before and
// after. A cold-minimize pool that runs out before the window closes
// fails the run: the window would then be set by the program's speed.
func (lr *liveResult) measure(d *daemon, window time.Duration) error {
	pid := strconv.Itoa(d.pid())
	var err error
	if lr.before, err = scrape(d.addr); err != nil {
		return err
	}
	if lr.from, err = readSample(pid); err != nil {
		return err
	}
	var rssErr error
	lr.load = closedLoop(d.addr, lr.in, clients, window, lr.in.rssAfter, func() {
		lr.rssMiB, rssErr = peakRSSMiB(pid)
	})
	if lr.to, err = readSample(pid); err != nil {
		return err
	}
	if lr.rssMiB == 0 && rssErr == nil {
		lr.rssLate = true
		lr.rssMiB, rssErr = peakRSSMiB(pid)
	}
	if rssErr != nil {
		return rssErr
	}
	if lr.after, err = scrape(d.addr); err != nil {
		return err
	}
	if lr.load.exhausted {
		return fmt.Errorf("the %d-request pool ran out after %.2fs of the %v window",
			len(lr.in.stream), lr.load.elapsed.Seconds(), window)
	}
	if len(lr.load.lat) == 0 {
		return fmt.Errorf("no request succeeded: %v", lr.load.firstErrs)
	}
	lr.lat = make([]float64, len(lr.load.lat))
	for i, ns := range lr.load.lat {
		lr.lat[i] = float64(ns) / 1e3
	}
	sort.Float64s(lr.lat)
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (lr *liveResult) completed() float64 { return float64(len(lr.lat)) }

// cpuPerReq is tpqd's CPU per completed request, in µs.
func (lr *liveResult) cpuPerReq() float64 {
	return ratio(float64(lr.to.daemonTicks-lr.from.daemonTicks)*float64(clockTick/time.Microsecond), lr.completed())
}

// selfCPUPerReq is this process's CPU per completed request, in µs: the
// load generator's cost.
func (lr *liveResult) selfCPUPerReq() float64 {
	return ratio(float64(lr.to.selfTicks-lr.from.selfTicks)*float64(clockTick/time.Microsecond), lr.completed())
}

func (lr *liveResult) throughput() float64 { return ratio(lr.completed(), lr.load.elapsed.Seconds()) }

// stealFrac is the host's steal over the window: CPU time the hypervisor
// gave to other guests. It explains noise; nothing the program does
// changes it.
func (lr *liveResult) stealFrac() float64 {
	return ratio(float64(lr.to.steal-lr.from.steal), float64(lr.to.jiffies-lr.from.jiffies))
}

// errorFrac counts transport errors, non-2xx replies and wrong answers
// against the requests attempted.
func (lr *liveResult) errorFrac() float64 {
	return float64(lr.load.failed()) / float64(lr.load.attempted)
}

// endToEnd is the -trace 0 metric set.
func (lr *liveResult) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":        {median(durationsSeconds(lr.setups)), "s"},
		"latency_p50_us": {quantile(lr.lat, 0.50), "us"},
		"cpu_us_per_req": {lr.cpuPerReq(), "us"},
		"peak_rss_mb":    {lr.rssMiB, "MiB"},
	}
}

func (lr *liveResult) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench: setups %v\n", lr.setups)
	fmt.Fprintf(w, "perfbench: window %.2fs, %d clients: %d attempted, %d ok, %d transport errors, %d non-2xx, %d wrong; error_frac %.6f\n",
		lr.load.elapsed.Seconds(), clients, lr.load.attempted, len(lr.load.lat), lr.load.transport, lr.load.status, lr.load.wrong, lr.errorFrac())
	if lr.rssLate {
		fmt.Fprintf(w, "perfbench: fewer than %d requests completed; peak_rss_mb read at the end of the window\n", lr.in.rssAfter)
	}
	for _, e := range lr.load.firstErrs {
		fmt.Fprintln(w, "perfbench: failure:", e)
	}
	p99 := quantile(lr.lat, 0.99)
	fmt.Fprintf(w, "perfbench: window %.2fs %d samples: p50 %.1fus p90 %.1fus p99 %.1fus (%d beyond) | %.0f req/s | tpqd cpu %.2fus/req | loadgen.cpu_us_per_req %.2f | host.steal_frac %.4f\n",
		lr.load.elapsed.Seconds(), len(lr.lat), quantile(lr.lat, 0.5), quantile(lr.lat, 0.9), p99,
		len(lr.lat)-sort.SearchFloat64s(lr.lat, p99), lr.throughput(), lr.cpuPerReq(), lr.selfCPUPerReq(), lr.stealFrac())
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
