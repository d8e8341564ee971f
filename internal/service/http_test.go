package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

func newTestServer(t *testing.T, svcOpts Options, hOpts HandlerOptions) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(svcOpts)
	ts := httptest.NewServer(NewHandler(svc, hOpts))
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPMinimize(t *testing.T) {
	_, ts := newTestServer(t,
		Options{Constraints: ics.MustParseSet("Section => Paragraph")}, HandlerOptions{})

	body := `{"query": "Articles/Article*[//Paragraph, /Section//Paragraph]"}`
	resp, data := postJSON(t, ts.URL+"/minimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out minimizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if out.Output != "Articles/Article*/Section" {
		t.Errorf("output = %q", out.Output)
	}
	if out.InputSize != 5 || out.OutputSize != 3 || out.CacheHit {
		t.Errorf("first response: %+v", out)
	}

	resp, data = postJSON(t, ts.URL+"/minimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	json.Unmarshal(data, &out)
	if !out.CacheHit {
		t.Errorf("repeat request should be a cache hit: %+v", out)
	}
}

// TestHTTPRepliesCompact: a miss reply and the exact-text hit reply of the
// same query are each one line, and they agree on everything but the
// cache flag and the clock.
func TestHTTPRepliesCompact(t *testing.T) {
	_, ts := newTestServer(t,
		Options{Constraints: ics.MustParseSet("Section => Paragraph")}, HandlerOptions{})
	body := `{"query": "Articles/Article*[//Paragraph, /Section//Paragraph]"}`
	var replies [2]minimizeResponse
	for i := range replies {
		resp, data := postJSON(t, ts.URL+"/minimize", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reply %d: status %d: %s", i, resp.StatusCode, data)
		}
		if line := bytes.TrimSuffix(data, []byte("\n")); bytes.Contains(line, []byte("\n")) {
			t.Errorf("reply %d is not one compact line: %q", i, data)
		}
		if err := json.Unmarshal(data, &replies[i]); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	miss, hit := replies[0], replies[1]
	if miss.CacheHit || !hit.CacheHit {
		t.Fatalf("want a miss then a hit, got %+v then %+v", miss, hit)
	}
	hit.CacheHit, hit.Micros = miss.CacheHit, miss.Micros
	if hit != miss {
		t.Errorf("hit reply %+v differs from miss reply %+v", hit, miss)
	}
}

func TestHTTPMinimizeXPath(t *testing.T) {
	_, ts := newTestServer(t, Options{}, HandlerOptions{})
	resp, data := postJSON(t, ts.URL+"/minimize", `{"xpath": "/a[b]/b"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out minimizeResponse
	json.Unmarshal(data, &out)
	if out.OutputXPath == "" {
		t.Errorf("xpath input should produce an xpath output: %+v", out)
	}
	// XPath queries carry a #document root: /a[b]/b is 4 nodes, its
	// minimal form (#document/a/b*) is 3.
	if out.OutputSize != 3 {
		t.Errorf("redundant [b] predicate should fold away: %+v", out)
	}
}

func TestHTTPMinimizeBatch(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 4}, HandlerOptions{})
	resp, data := postJSON(t, ts.URL+"/minimize",
		`{"queries": ["a*[/b, /b]", "c*[//d, //d]", "a*[/b, /b]"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out batchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Results[0].Output != "a*/b" || out.Results[1].Output != "c*//d" || out.Results[2].Output != "a*/b" {
		t.Errorf("batch outputs: %+v", out.Results)
	}
	if snap := svc.Stats(); snap.Minimizations != 2 {
		t.Errorf("minimizations = %d, want 2 (batch duplicate dedups)", snap.Minimizations)
	}
}

func TestHTTPMatch(t *testing.T) {
	forest, err := data.ParseXML(strings.NewReader(
		"<lib><book><title/><title/></book><book><title/></book></lib>"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{}, HandlerOptions{Forest: forest})
	resp, data := postJSON(t, ts.URL+"/match", `{"query": "book[/title]/title*"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out matchResponse
	json.Unmarshal(data, &out)
	if out.Count != 3 {
		t.Errorf("count = %d, want 3 titles", out.Count)
	}
	if out.OutputSize != 2 {
		t.Errorf("redundant [/title] should be minimized away before matching: %+v", out)
	}
}

func TestHTTPMatchWithoutDocument(t *testing.T) {
	_, ts := newTestServer(t, Options{}, HandlerOptions{})
	resp, data := postJSON(t, ts.URL+"/match", `{"query": "a*"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d: %s", resp.StatusCode, data)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	svc, ts := newTestServer(t, Options{}, HandlerOptions{})
	postJSON(t, ts.URL+"/minimize", `{"query": "a*[/b, /b]"}`)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests != 1 || snap.Minimizations != 1 || snap.CacheCap != DefaultCacheSize {
		t.Errorf("stats: %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close = %d, want 503", resp.StatusCode)
	}
	resp, data := postJSON(t, ts.URL+"/minimize", `{"query": "a*"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("minimize after Close = %d: %s", resp.StatusCode, data)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{}, HandlerOptions{MaxBatch: 2, MaxBody: 64})
	oversized := `{"query": "` + strings.Repeat("a", 64) + `"}`
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"no query", `{}`, http.StatusBadRequest},
		{"parse error", `{"query": "a*[/"}`, http.StatusBadRequest},
		{"bad xpath", `{"xpath": "???"}`, http.StatusBadRequest},
		// XPath names must start like text-grammar names, so that a
		// reply's output can be sent back as a query.
		{"xpath digit name", `{"xpath": "//0/1"}`, http.StatusBadRequest},
		{"xpath dash name", `{"xpath": "//a/-b"}`, http.StatusBadRequest},
		{"xpath digit-led step", `{"xpath": "//Article/9lives"}`, http.StatusBadRequest},
		{"mixed forms", `{"query": "a*", "queries": ["b*"]}`, http.StatusBadRequest},
		{"oversized batch", `{"queries": ["a*", "b*", "c*"]}`, http.StatusRequestEntityTooLarge},
		{"bad batch member", `{"queries": ["a*", "[["]}`, http.StatusBadRequest},
		{"oversized body", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/minimize", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
		}
		var e map[string]string
		if json.Unmarshal(data, &e) != nil || e["error"] == "" {
			t.Errorf("%s: error body missing: %s", tc.name, data)
		}
	}

	if resp, data := postJSON(t, ts.URL+"/match", oversized); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /match body: status %d, want 413 (%s)", resp.StatusCode, data)
	}
	// /match reads its body as /minimize does: one JSON value and nothing
	// after it. The valid body answers, so the rejections are the trailers'.
	const one = `{"xpath":"//a","document":"<a/>"}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"one value", one, http.StatusOK},
		{"trailing bytes", one + ` trailing`, http.StatusBadRequest},
		{"second value", one + `{"xpath":"//b"}`, http.StatusBadRequest},
	} {
		resp, data := postJSON(t, ts.URL+"/match", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("/match %s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
		}
	}

	resp, err := http.Get(ts.URL + "/minimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /minimize = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{}, HandlerOptions{Timeout: time.Nanosecond})
	resp, data := postJSON(t, ts.URL+"/minimize", `{"query": "a*[/b, /b]"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (%s)", resp.StatusCode, data)
	}
}

// TestHTTPMatchTimeout pins that a /match whose evaluation is canceled
// answers 504, not a count: the minimization is a cache hit, so the
// deadline passes in the evaluation, which then counts nothing.
func TestHTTPMatchTimeout(t *testing.T) {
	forest, err := data.ParseXML(strings.NewReader("<lib><book><title/></book></lib>"))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{}, HandlerOptions{Forest: forest, Timeout: time.Nanosecond})
	if _, _, err := svc.Minimize(context.Background(), pattern.MustParse("book/title*")); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/match", `{"query": "book/title*"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (%s)", resp.StatusCode, data)
	}
	if snap := svc.Stats(); snap.MatchRequests != 1 || snap.MatchAnswers != 0 {
		t.Errorf("match counters after a canceled run: %+v", snap)
	}
}

func TestHTTPMatchStream(t *testing.T) {
	forest, err := data.ParseXML(strings.NewReader(
		"<lib><book><title/><title/></book><book><title/></book></lib>"))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{}, HandlerOptions{Forest: forest})
	resp, body := postJSON(t, ts.URL+"/match", `{"query": "book/title*", "stream": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d NDJSON lines, want 3 answers + summary:\n%s", len(lines), body)
	}
	for _, ln := range lines[:3] {
		var a matchAnswer
		if err := json.Unmarshal([]byte(ln), &a); err != nil {
			t.Fatalf("answer line %q: %v", ln, err)
		}
		if len(a.Types) != 1 || a.Types[0] != "title" {
			t.Errorf("answer line %q: types %v", ln, a.Types)
		}
	}
	var sum matchSummary
	if err := json.Unmarshal([]byte(lines[3]), &sum); err != nil {
		t.Fatalf("summary line %q: %v", lines[3], err)
	}
	if !sum.Done || sum.Count != 3 || sum.Truncated || sum.Error != "" {
		t.Errorf("summary: %+v", sum)
	}
	snap := svc.Stats()
	if snap.MatchRequests != 1 || snap.MatchStreams != 1 || snap.MatchAnswers != 3 || snap.MatchLimited != 0 {
		t.Errorf("match counters: %+v", snap)
	}
	if ph, ok := snap.Phases["match"]; !ok || ph.Count != 1 {
		t.Errorf("match phase histogram: %+v", snap.Phases)
	}
}

func TestHTTPMatchLimit(t *testing.T) {
	forest, err := data.ParseXML(strings.NewReader(
		"<lib><book><title/><title/></book><book><title/></book></lib>"))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{}, HandlerOptions{Forest: forest})

	resp, body := postJSON(t, ts.URL+"/match", `{"query": "book/title*", "limit": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out matchResponse
	json.Unmarshal(body, &out)
	if out.Count != 2 || !out.Truncated {
		t.Errorf("limited response: %+v", out)
	}
	// The count is capped at the limit, and truncated only when more
	// answers exist than the limit: not at a limit equal to the answer
	// count or above it. A union is capped the same way.
	for _, c := range []struct {
		body      string
		count     int
		truncated bool
	}{
		{`{"query": "book/title*", "limit": 3}`, 3, false},
		{`{"query": "book/title*", "limit": 10}`, 3, false},
		{`{"query": "or(book/title*, lib/book*)", "limit": 4}`, 4, true},
		{`{"query": "or(book/title*, lib/book*)", "limit": 5}`, 5, false},
	} {
		resp, body := postJSON(t, ts.URL+"/match", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.body, resp.StatusCode, body)
		}
		var out matchResponse
		json.Unmarshal(body, &out)
		if out.Count != c.count || out.Truncated != c.truncated {
			t.Errorf("%s: count %d, truncated %v; want %d, %v", c.body, out.Count, out.Truncated, c.count, c.truncated)
		}
	}

	resp, body = postJSON(t, ts.URL+"/match", `{"query": "book/title*", "stream": true, "limit": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 answers + summary:\n%s", len(lines), body)
	}
	var sum matchSummary
	json.Unmarshal([]byte(lines[2]), &sum)
	if !sum.Done || sum.Count != 2 || !sum.Truncated {
		t.Errorf("summary: %+v", sum)
	}

	if resp, body = postJSON(t, ts.URL+"/match", `{"query": "a*", "limit": -1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit: status %d: %s", resp.StatusCode, body)
	}
	if snap := svc.Stats(); snap.MatchLimited != 3 {
		t.Errorf("matchLimited = %d, want 3", snap.MatchLimited)
	}
}

func TestHTTPMatchInlineDocument(t *testing.T) {
	_, ts := newTestServer(t, Options{}, HandlerOptions{MaxDocNodes: 5})
	resp, body := postJSON(t, ts.URL+"/match",
		`{"query": "book/title*", "document": "<lib><book><title/></book></lib>"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out matchResponse
	json.Unmarshal(body, &out)
	if out.Count != 1 {
		t.Errorf("count = %d, want 1", out.Count)
	}

	resp, body = postJSON(t, ts.URL+"/match",
		`{"query": "a*", "document": "<a><b/><b/><b/><b/><b/></a>"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized document: status %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/match", `{"query": "a*", "document": "<unclosed"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed document: status %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPMatchMetricsExposed(t *testing.T) {
	forest, err := data.ParseXML(strings.NewReader("<a><b/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{}, HandlerOptions{Forest: forest})
	postJSON(t, ts.URL+"/match", `{"query": "a/b*"}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"tpq_match_requests_total 1",
		"tpq_match_answers_total 1",
		"tpq_match_streams_total 0",
		"tpq_match_limited_total 0",
		`tpq_phase_duration_seconds_count{phase="match"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
