package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/hdr"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// promScrape is one parsed /metrics response: sample values keyed by the
// full series (name plus label set, exactly as exposed), and the declared
// TYPE of every family.
type promScrape struct {
	samples map[string]float64
	types   map[string]string
}

var (
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?(?:[0-9.eE+-]+|Inf)|NaN)$`)
	promHelp   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promType   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// parsePrometheus validates body line by line against the text exposition
// format (0.0.4): every line is a HELP comment, a TYPE comment, or a
// well-formed sample whose family has a preceding TYPE.
func parsePrometheus(t *testing.T, body []byte) promScrape {
	t.Helper()
	scrape := promScrape{samples: map[string]float64{}, types: map[string]string{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE"):
			m := promType.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE comment: %q", n, line)
			}
			scrape.types[m[1]] = m[2]
		case strings.HasPrefix(line, "#"):
			if !promHelp.MatchString(line) {
				t.Fatalf("line %d: malformed comment: %q", n, line)
			}
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", n, line)
			}
			family := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(family, suffix)
				if scrape.types[base] == "histogram" {
					family = base
					break
				}
			}
			if scrape.types[family] == "" {
				t.Fatalf("line %d: sample %q has no preceding TYPE", n, line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value in %q: %v", n, line, err)
			}
			scrape.samples[m[1]+m[2]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return scrape
}

func (p promScrape) value(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := p.samples[series]
	if !ok {
		t.Fatalf("series %q not exposed", series)
	}
	return v
}

func scrapeMetrics(t *testing.T, url string) promScrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return parsePrometheus(t, buf.Bytes())
}

// TestHTTPMetrics is the acceptance check for the /metrics endpoint: the
// output parses as Prometheus text, the per-phase histograms are present
// for every pipeline phase, and the counters move after a /minimize.
func TestHTTPMetrics(t *testing.T) {
	_, ts := newTestServer(t,
		Options{Constraints: ics.MustParseSet("Section => Paragraph")}, HandlerOptions{})

	before := scrapeMetrics(t, ts.URL)
	if got := before.value(t, "tpq_requests_total"); got != 0 {
		t.Fatalf("fresh service: tpq_requests_total = %v", got)
	}
	for _, ph := range trace.Phases() {
		series := fmt.Sprintf("tpq_phase_duration_seconds_count{phase=%q}", ph)
		if got := before.value(t, series); got != 0 {
			t.Errorf("fresh service: %s = %v", series, got)
		}
	}

	resp, body := postJSON(t, ts.URL+"/minimize",
		`{"query": "Articles/Article*[//Paragraph, /Section//Paragraph]"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("minimize: status %d: %s", resp.StatusCode, body)
	}

	after := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		"tpq_requests_total":                 1,
		"tpq_minimizations_total":            1,
		"tpq_cache_misses_total":             1,
		"tpq_cache_hits_total":               0,
		"tpq_request_duration_seconds_count": 1,
	} {
		if got := after.value(t, series); got != want {
			t.Errorf("after one minimize: %s = %v, want %v", series, got, want)
		}
	}
	// Every phase the pipeline ran fed its histogram exactly once; parse
	// was observed by the HTTP layer.
	for _, ph := range []trace.Phase{trace.Parse, trace.CDM, trace.ACIM, trace.CIM} {
		series := fmt.Sprintf("tpq_phase_duration_seconds_count{phase=%q}", ph)
		if got := after.value(t, series); got != 1 {
			t.Errorf("after one minimize: %s = %v, want 1", series, got)
		}
	}
	removed := after.value(t, `tpq_nodes_removed_total{phase="cdm"}`) +
		after.value(t, `tpq_nodes_removed_total{phase="acim"}`)
	if removed != 2 {
		t.Errorf("tpq_nodes_removed_total summed over phases = %v, want 2", removed)
	}
	// The pipeline run looked its chase plan up exactly once. The engine
	// warms the process-wide registry at construction, so the lookup is a
	// hit, not a compile.
	lookups := after.value(t, "tpq_plans_compiled_total") + after.value(t, "tpq_plan_hits_total")
	if lookups != 1 {
		t.Errorf("after one minimize: plan lookups = %v, want 1", lookups)
	}
	if got := after.value(t, "tpq_plan_hits_total"); got != 1 {
		t.Errorf("after one minimize: tpq_plan_hits_total = %v, want 1 (registry pre-warmed)", got)
	}
	if got := after.value(t, "tpq_plan_cache_entries"); got < 1 {
		t.Errorf("tpq_plan_cache_entries = %v, want >= 1", got)
	}
	if got := after.value(t, "tpq_plan_cache_capacity"); got <= 0 {
		t.Errorf("tpq_plan_cache_capacity = %v, want > 0", got)
	}

	// Repeating the same query is a cache hit: no new minimization, no
	// new phase observations.
	postJSON(t, ts.URL+"/minimize",
		`{"query": "Articles/Article*[//Paragraph, /Section//Paragraph]"}`)
	hit := scrapeMetrics(t, ts.URL)
	if got := hit.value(t, "tpq_cache_hits_total"); got != 1 {
		t.Errorf("after repeat: tpq_cache_hits_total = %v, want 1", got)
	}
	if got := hit.value(t, "tpq_minimizations_total"); got != 1 {
		t.Errorf("after repeat: tpq_minimizations_total = %v, want 1", got)
	}
	if got := hit.value(t, "tpq_plans_compiled_total") + hit.value(t, "tpq_plan_hits_total"); got != 1 {
		t.Errorf("after repeat: plan lookups = %v, want 1 (cache hits run no pipeline)", got)
	}

	if resp, _ := postJSON(t, ts.URL+"/metrics", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

// TestPrometheusHistogramShape checks the exposition invariants Prometheus
// itself enforces on scrape: buckets are cumulative and the +Inf bucket
// equals _count.
func TestPrometheusHistogramShape(t *testing.T) {
	svc := New(Options{Constraints: ics.MustParseSet("a -> b")})
	for i := 0; i < 5; i++ {
		if _, _, err := svc.Minimize(context.Background(), pattern.MustParse("a*[/b, /b]")); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	svc.WritePrometheus(&buf)
	scrape := parsePrometheus(t, buf.Bytes())

	var bounds []float64
	for _, ns := range hdr.DefaultLayout.Bounds() {
		bounds = append(bounds, float64(ns)/1e9)
	}
	prev := 0.0
	for _, b := range bounds {
		series := fmt.Sprintf("tpq_request_duration_seconds_bucket{le=%q}",
			strconv.FormatFloat(b, 'g', -1, 64))
		v := scrape.value(t, series)
		if v < prev {
			t.Fatalf("bucket %s = %v < previous %v: not cumulative", series, v, prev)
		}
		prev = v
	}
	inf := scrape.value(t, `tpq_request_duration_seconds_bucket{le="+Inf"}`)
	count := scrape.value(t, "tpq_request_duration_seconds_count")
	if inf != count || count != 5 {
		t.Fatalf("+Inf bucket %v, _count %v, want both 5", inf, count)
	}
	if sum := scrape.value(t, "tpq_request_duration_seconds_sum"); sum <= 0 {
		t.Fatalf("_sum = %v, want > 0", sum)
	}
}

// syncBuffer serializes a bytes.Buffer so the slow-log writer and the
// test's reads never race.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	b := &syncBuffer{mu: make(chan struct{}, 1)}
	b.mu <- struct{}{}
	return b
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	<-b.mu
	defer func() { b.mu <- struct{}{} }()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestSlowLogFires checks that with a threshold every pipeline run
// clears, each compute emits exactly one parseable SlowQuery line — and
// that cache hits never log.
func TestSlowLogFires(t *testing.T) {
	buf := newSyncBuffer()
	svc := New(Options{
		Constraints:      ics.MustParseSet("Section => Paragraph"),
		SlowLogThreshold: time.Nanosecond,
		SlowLog:          buf,
	})
	q := pattern.MustParse("Articles/Article*[//Paragraph, /Section//Paragraph]")
	if _, _, err := svc.Minimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(buf.Bytes())), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1:\n%s", len(lines), buf.Bytes())
	}
	var rec SlowQuery
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Fingerprint != q.Fingerprint() {
		t.Errorf("fingerprint = %q, want %q", rec.Fingerprint, q.Fingerprint())
	}
	if rec.Constraints != svc.Fingerprint() {
		t.Errorf("constraints fingerprint = %q, want %q", rec.Constraints, svc.Fingerprint())
	}
	if rec.InputSize != 5 || rec.OutputSize != 3 || rec.CDMRemoved+rec.ACIMRemoved != 2 {
		t.Errorf("sizes: %+v", rec)
	}
	if rec.Micros <= 0 || rec.ThresholdMicros != 0 {
		t.Errorf("micros = %d, thresholdMicros = %d", rec.Micros, rec.ThresholdMicros)
	}
	known := map[string]bool{}
	for _, ph := range trace.Phases() {
		known[ph.String()] = true
	}
	for name, us := range rec.PhaseMicros {
		if !known[name] {
			t.Errorf("unknown phase %q in slow log", name)
		}
		// Phases that round to zero microseconds are omitted, so every
		// serialized value is positive — "phase": 0 never appears. (A
		// fast run may legitimately omit any phase, acim included, so
		// presence of a specific phase is not asserted.)
		if us <= 0 {
			t.Errorf("phase %q serialized as %d, zero-duration phases must be omitted", name, us)
		}
	}
	if snap := svc.Stats(); snap.SlowQueries != 1 {
		t.Errorf("Stats().SlowQueries = %d, want 1", snap.SlowQueries)
	}

	// The repeat request is a cache hit — compute never runs, nothing logs.
	if _, rep, err := svc.Minimize(context.Background(), q); err != nil || !rep.CacheHit {
		t.Fatalf("repeat: rep=%+v err=%v", rep, err)
	}
	if got := strings.Count(string(buf.Bytes()), "\n"); got != 1 {
		t.Errorf("cache hit appended to slow log: %d lines", got)
	}
}

// failingWriter rejects every write, like a full disk or a closed pipe.
type failingWriter struct{ calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, errors.New("disk full")
}

// TestSlowLogDroppedOnFailingWriter pins the accounting when the slow
// log's writer fails: the line is lost, so slowQueries must NOT count
// it — the drop lands in slowLogDropped instead, on /stats and
// /metrics.
func TestSlowLogDroppedOnFailingWriter(t *testing.T) {
	w := &failingWriter{}
	svc := New(Options{
		SlowLogThreshold: time.Nanosecond,
		SlowLog:          w,
	})
	if _, _, err := svc.Minimize(context.Background(), pattern.MustParse("a*[/b, /b]")); err != nil {
		t.Fatal(err)
	}
	if w.calls == 0 {
		t.Fatal("slow log writer never invoked — threshold did not fire")
	}
	snap := svc.Stats()
	if snap.SlowQueries != 0 {
		t.Errorf("SlowQueries = %d, want 0 (the line was never written)", snap.SlowQueries)
	}
	if snap.SlowLogDropped != int64(w.calls) {
		t.Errorf("SlowLogDropped = %d, want %d", snap.SlowLogDropped, w.calls)
	}
	var buf bytes.Buffer
	svc.WritePrometheus(&buf)
	scrape := parsePrometheus(t, buf.Bytes())
	if got := scrape.samples["tpq_slow_log_dropped_total"]; got != float64(w.calls) {
		t.Errorf("tpq_slow_log_dropped_total = %v, want %d", got, w.calls)
	}
	if got := scrape.samples["tpq_slow_queries_total"]; got != 0 {
		t.Errorf("tpq_slow_queries_total = %v, want 0", got)
	}
}

// TestSlowLogOmitsZeroMicrosPhases drives logSlow directly with a
// crafted trace: a sub-microsecond phase must be omitted from the
// serialized breakdown (it would round to the ambiguous "phase": 0),
// while a phase of at least one microsecond survives.
func TestSlowLogOmitsZeroMicrosPhases(t *testing.T) {
	buf := newSyncBuffer()
	svc := New(Options{
		SlowLogThreshold: time.Nanosecond,
		SlowLog:          buf,
	})
	q := pattern.MustParse("a*/b")
	tr := trace.New()
	tr.AddDur(trace.CDM, 500*time.Nanosecond) // rounds to 0µs → omitted
	tr.AddDur(trace.ACIM, 2*time.Microsecond) // survives
	svc.logSlow(q, engine.Result{Output: q}, tr, time.Millisecond)

	var rec SlowQuery
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, buf.Bytes())
	}
	if us, ok := rec.PhaseMicros["cdm"]; ok {
		t.Errorf("sub-microsecond cdm phase serialized as %d, want omitted", us)
	}
	if us, ok := rec.PhaseMicros["acim"]; !ok || us != 2 {
		t.Errorf("acim phase = %d (present=%v), want 2", us, ok)
	}
}

// TestSlowLogSilent checks that runs under the threshold stay out of the
// log entirely.
func TestSlowLogSilent(t *testing.T) {
	buf := newSyncBuffer()
	svc := New(Options{
		Constraints:      ics.MustParseSet("a -> b"),
		SlowLogThreshold: time.Hour,
		SlowLog:          buf,
	})
	if _, _, err := svc.Minimize(context.Background(), pattern.MustParse("a*[/b, /b]")); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 0 {
		t.Fatalf("sub-threshold run logged: %s", got)
	}
	if snap := svc.Stats(); snap.SlowQueries != 0 {
		t.Errorf("Stats().SlowQueries = %d, want 0", snap.SlowQueries)
	}
}

// goldenMetricTypes is the /metrics family set, as sorted TYPE lines. A
// family added, renamed, retyped or dropped fails TestMetricsGolden
// until this list follows.
var goldenMetricTypes = []string{
	"# TYPE tpq_batches_total counter",
	"# TYPE tpq_cache_capacity gauge",
	"# TYPE tpq_cache_entries gauge",
	"# TYPE tpq_cache_evictions_total counter",
	"# TYPE tpq_cache_hits_total counter",
	"# TYPE tpq_cache_misses_total counter",
	"# TYPE tpq_cache_shards gauge",
	"# TYPE tpq_constraints gauge",
	"# TYPE tpq_errors_total counter",
	"# TYPE tpq_inflight_merges_total counter",
	"# TYPE tpq_inflight_requests gauge",
	"# TYPE tpq_match_answers_total counter",
	"# TYPE tpq_match_limited_total counter",
	"# TYPE tpq_match_requests_total counter",
	"# TYPE tpq_match_streams_total counter",
	"# TYPE tpq_minimizations_total counter",
	"# TYPE tpq_nodes_removed_total counter",
	"# TYPE tpq_or_absorbed_total counter",
	"# TYPE tpq_or_cache_entries gauge",
	"# TYPE tpq_or_cache_hits_total counter",
	"# TYPE tpq_or_disjuncts_total counter",
	"# TYPE tpq_or_requests_total counter",
	"# TYPE tpq_or_unsat_total counter",
	"# TYPE tpq_phase_duration_seconds histogram",
	"# TYPE tpq_plan_cache_capacity gauge",
	"# TYPE tpq_plan_cache_entries gauge",
	"# TYPE tpq_plan_hits_total counter",
	"# TYPE tpq_plans_compiled_total counter",
	"# TYPE tpq_request_duration_seconds histogram",
	"# TYPE tpq_requests_total counter",
	"# TYPE tpq_slow_log_dropped_total counter",
	"# TYPE tpq_slow_queries_total counter",
	"# TYPE tpq_store_compactions_total counter",
	"# TYPE tpq_store_dropped_total counter",
	"# TYPE tpq_store_entries gauge",
	"# TYPE tpq_store_errors_total counter",
	"# TYPE tpq_store_hits_total counter",
	"# TYPE tpq_store_log_bytes gauge",
	"# TYPE tpq_store_misses_total counter",
	"# TYPE tpq_store_puts_total counter",
	"# TYPE tpq_store_replayed_records gauge",
	"# TYPE tpq_store_torn_bytes gauge",
	"# TYPE tpq_tables_total counter",
	"# TYPE tpq_unsatisfiable_total counter",
	"# TYPE tpq_uptime_seconds gauge",
	"# TYPE tpq_warm_start_entries_total counter",
	"# TYPE tpq_workers gauge",
}

// TestMetricsGolden pins the exposition to its one declaration, the
// Snapshot tags. Through a handler with a store it drives a miss, a hit,
// a store put, a two-disjunct union and a /match; then the sorted TYPE
// lines of /metrics must equal goldenMetricTypes, and every
// metric-tagged Snapshot counter must read the same on /stats as on
// /metrics.
func TestMetricsGolden(t *testing.T) {
	forest, err := data.ParseXML(strings.NewReader("<a><b/><c/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{Store: openStore(t, t.TempDir())}, HandlerOptions{Forest: forest})
	for _, req := range []struct{ path, body string }{
		{"/minimize", `{"query": "a*[/b, /b]"}`}, // miss: computes, then a store put
		{"/minimize", `{"query": "a*[/b, /b]"}`}, // hit
		{"/minimize", `{"query": "or(x*/y, z*/w)"}`},
		{"/match", `{"query": "a*/b"}`},
	} {
		if resp, body := postJSON(t, ts.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: status %d: %s", req.path, req.body, resp.StatusCode, body)
		}
	}
	closeService(t, svc) // drains the write-behind queue

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	scrape := parsePrometheus(t, text.Bytes())
	var types []string
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	if !slices.Equal(types, goldenMetricTypes) {
		t.Errorf("/metrics TYPE lines:\n%s\nwant:\n%s", strings.Join(types, "\n"), strings.Join(goldenMetricTypes, "\n"))
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	var compare func(typ reflect.Type, obj map[string]any)
	compare = func(typ reflect.Type, obj map[string]any) {
		family := ""
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if f.Type.Kind() == reflect.Pointer {
				sub, ok := obj[key].(map[string]any)
				if !ok {
					t.Fatalf("/stats has no %q object", key)
				}
				compare(f.Type.Elem(), sub)
				continue
			}
			series, ok := f.Tag.Lookup("metric")
			if !ok {
				continue
			}
			if strings.HasPrefix(series, "{") {
				series = family + series
			} else {
				family, _, _ = strings.Cut(series, "{")
			}
			if !strings.HasSuffix(family, "_total") {
				continue
			}
			got, ok := obj[key].(float64)
			if !ok {
				t.Errorf("/stats has no %q", key)
				continue
			}
			if want := scrape.value(t, series); got != want {
				t.Errorf("/stats %s = %v, /metrics %s = %v", key, got, series, want)
			}
			checked++
		}
	}
	compare(reflect.TypeOf(Snapshot{}), stats)
	if checked < 30 {
		t.Errorf("compared %d counters, want every tagged counter (>= 30)", checked)
	}
	for series, want := range map[string]float64{
		"tpq_cache_hits_total":     1,
		"tpq_store_puts_total":     4, // one per computed conjunct: the miss, both disjuncts, the match query
		"tpq_or_requests_total":    1,
		"tpq_match_requests_total": 1,
	} {
		if got := scrape.value(t, series); got != want {
			t.Errorf("%s = %v, want %v: the request sequence did not reach it", series, got, want)
		}
	}
}
