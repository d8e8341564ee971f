package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one spawned tpqd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stdout hits EOF
}

// startDaemon spawns tpqd on an ephemeral loopback port and returns once
// it reports the address it listens on.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// Should this process die without stopping it, tpqd goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tpqd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
			d.addr, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	go func() {
		defer close(d.drained)
		io.Copy(io.Discard, out) // keep the pipe from filling; ends at exit
	}()
	if d.addr == "" {
		d.stop()
		return nil, fmt.Errorf("tpqd exited before listening")
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks tpqd to shut down gracefully and waits for it; a daemon that
// does not exit within ten seconds is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	<-d.drained
	d.cmd.Wait()
	timer.Stop()
}

// procCPUTicks is a process's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat; all threads included).
func procCPUTicks(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	return u + s, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times: 100 on every Linux
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// peakRSSMiB reads VmHWM, the resident-set high-water mark, from
// /proc/<pid>/status.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// hostCPU returns the steal and total jiffies of the aggregate cpu line
// of /proc/stat.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		if i >= 8 { // guest time is already counted in user time
			break
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// counters is one scrape of a live tpqd: /metrics samples by series
// (family name plus labels) and the runtime memstats of /debug/vars.
type counters struct {
	series   map[string]float64
	memstats struct {
		TotalAlloc, Mallocs float64
		NumGC               float64
	}
}

func (c *counters) get(series string) float64 { return c.series[series] }

// liveSeries are the /metrics series the per-layer metrics read from a
// live tpqd, by family name and labels. A scrape that lacks one fails, so
// a renamed family cannot read as zero.
var liveSeries = []string{
	"tpq_requests_total", "tpq_minimizations_total",
	"tpq_cache_hits_total", "tpq_cache_misses_total", "tpq_cache_evictions_total", "tpq_inflight_merges_total",
	"tpq_or_requests_total", "tpq_or_cache_hits_total",
	"tpq_plan_hits_total", "tpq_plans_compiled_total",
	`tpq_tables_total{kind="built"}`, `tpq_tables_total{kind="derived"}`,
	`tpq_nodes_removed_total{phase="cdm"}`, `tpq_nodes_removed_total{phase="acim"}`,
	"tpq_store_puts_total", "tpq_store_dropped_total", "tpq_store_log_bytes",
}

// scrape reads /metrics and /debug/vars.
func scrape(addr string) (*counters, error) {
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(path string) ([]byte, error) {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
	text, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	c := &counters{series: parseExposition(text)}
	for _, name := range liveSeries {
		if _, ok := c.series[name]; !ok {
			return nil, fmt.Errorf("tpqd's /metrics has no %s", name)
		}
	}
	vars, err := get("/debug/vars")
	if err != nil {
		return nil, err
	}
	var v struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	if err := json.Unmarshal(v.Memstats, &c.memstats); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars memstats: %w", err)
	}
	return c, nil
}

// parseExposition reads Prometheus text samples into series → value;
// comments and histogram buckets are skipped.
func parseExposition(text []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
