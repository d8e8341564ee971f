package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read run's stdout while run is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServer runs tpqd on an ephemeral port and returns its base URL and a
// shutdown function that cancels the server and returns its exit code.
func startServer(t *testing.T, extraArgs ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	args := append([]string{"-addr", "127.0.0.1:0", "-grace", "5s"}, extraArgs...)
	code := make(chan int, 1)
	go func() { code <- run(ctx, args, &stdout, &stderr) }()

	deadline := time.Now().Add(5 * time.Second)
	var url string
	for url == "" {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			url = m[1]
			break
		}
		select {
		case c := <-code:
			cancel()
			t.Fatalf("tpqd exited early with %d\nstdout: %s\nstderr: %s", c, stdout.String(), stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server did not start\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return url, func() int {
		cancel()
		select {
		case c := <-code:
			return c
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
			return -1
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	consPath := filepath.Join(dir, "cs.txt")
	if err := os.WriteFile(consPath, []byte("# paper example\nSection => Paragraph\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath,
		[]byte("<Articles><Article><Section><Paragraph/></Section></Article></Articles>"), 0o644); err != nil {
		t.Fatal(err)
	}

	url, shutdown := startServer(t, "-f", consPath, "-xml", xmlPath)

	post := func(path, body string) (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
		return resp.StatusCode, out
	}

	query := `{"query": "Articles/Article*[//Paragraph, /Section//Paragraph]"}`
	code, out := post("/minimize", query)
	if code != http.StatusOK || out["output"] != "Articles/Article*/Section" {
		t.Fatalf("minimize: %d %v", code, out)
	}
	if code, out = post("/minimize", query); out["cacheHit"] != true {
		t.Errorf("repeat minimize should hit the cache: %d %v", code, out)
	}

	if code, out = post("/match", `{"query": "Article[//Paragraph]/Section*"}`); code != http.StatusOK || out["count"] != float64(1) {
		t.Errorf("match: %d %v", code, out)
	}

	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats["constraints"] == float64(0) || stats["requests"] == float64(0) {
		t.Errorf("stats: %v", stats)
	}

	resp, err = http.Get(url + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(vars, []byte(`"tpqd"`)) {
		t.Errorf("/debug/vars should publish tpqd counters: %s", vars)
	}

	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	if c := shutdown(); c != 0 {
		t.Errorf("exit code = %d", c)
	}
}

// TestServerStoreRestart is the acceptance test for the persistent
// tier: a daemon restarted with the same -store serves a previously
// minimized query as a cache hit without recomputation.
func TestServerStoreRestart(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	query := `{"query": "Articles/Article*[//Paragraph, /Section//Paragraph]"}`

	post := func(url string) map[string]interface{} {
		t.Helper()
		resp, err := http.Post(url+"/minimize", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("minimize: %d %v", resp.StatusCode, out)
		}
		return out
	}
	getStats := func(url string) map[string]interface{} {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats
	}

	// First life: a cold miss, computed and written behind.
	url, shutdown := startServer(t, "-store", storeDir)
	out := post(url)
	if out["cacheHit"] == true {
		t.Fatalf("first request hit a fresh cache: %v", out)
	}
	want := out["output"]
	if c := shutdown(); c != 0 {
		t.Fatalf("first shutdown: exit %d", c)
	}

	// Second life, same store: warm-started, so the very first request is
	// a cache hit with the identical result and zero pipeline runs.
	url, shutdown = startServer(t, "-store", storeDir)
	defer shutdown()
	out = post(url)
	if out["cacheHit"] != true {
		t.Errorf("restarted daemon recomputed a persisted query: %v", out)
	}
	if out["output"] != want {
		t.Errorf("restarted output %v, want %v", out["output"], want)
	}
	stats := getStats(url)
	if stats["minimizations"] != float64(0) {
		t.Errorf("minimizations after restart = %v, want 0", stats["minimizations"])
	}
	if stats["warmStarted"] == float64(0) {
		t.Errorf("warm-start preloaded nothing: %v", stats["warmStarted"])
	}
	if stats["store"] == nil {
		t.Error("stats missing the store snapshot")
	}
}

// TestServerStoreRestartColdLookup covers the second tier without
// warm-start: the LRU is cold, the store answers the miss.
func TestServerStoreRestartColdLookup(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	query := `{"query": "a*[/b, /b]"}`
	post := func(url string) map[string]interface{} {
		t.Helper()
		resp, err := http.Post(url+"/minimize", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	url, shutdown := startServer(t, "-store", storeDir)
	post(url)
	if c := shutdown(); c != 0 {
		t.Fatalf("first shutdown: exit %d", c)
	}

	url, shutdown = startServer(t, "-store", storeDir, "-warm-start", "0")
	defer shutdown()
	if out := post(url); out["cacheHit"] != true {
		t.Errorf("store tier did not answer the cold-LRU miss: %v", out)
	}
}

func TestServerFlagAndFileErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	ctx := context.Background()
	if c := run(ctx, []string{"-bogus"}, &stdout, &stderr); c != 2 {
		t.Errorf("bad flag: exit %d, want 2", c)
	}
	if c := run(ctx, []string{"-f", "/nonexistent/cs.txt"}, &stdout, &stderr); c != 1 {
		t.Errorf("missing constraint file: exit %d, want 1", c)
	}
	if c := run(ctx, []string{"-xml", "/nonexistent/doc.xml"}, &stdout, &stderr); c != 1 {
		t.Errorf("missing xml: exit %d, want 1", c)
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("not a constraint line\n"), 0o644)
	if c := run(ctx, []string{"-f", bad}, &stdout, &stderr); c != 1 {
		t.Errorf("bad constraint file: exit %d, want 1", c)
	}
	if !strings.Contains(stderr.String(), "tpqd:") {
		t.Errorf("errors should be prefixed: %q", stderr.String())
	}
}

func TestServerAddrInUse(t *testing.T) {
	url, shutdown := startServer(t)
	defer shutdown()
	addr := strings.TrimPrefix(url, "http://")
	var stdout, stderr syncBuffer
	if c := run(context.Background(), []string{"-addr", addr}, &stdout, &stderr); c != 1 {
		t.Errorf("address in use: exit %d, want 1\nstderr: %s", c, stderr.String())
	}
}

func TestServerMatchErrorPaths(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath,
		[]byte("<lib><book><title/></book><book><title/></book></lib>"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, shutdown := startServer(t, "-xml", xmlPath, "-maxdoc", "5")
	defer shutdown()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+"/match", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Malformed pattern text.
	if code, body := post(`{"query": "book[/title*"}`); code != http.StatusBadRequest || !strings.Contains(body, "error") {
		t.Errorf("bad pattern: %d %s", code, body)
	}
	// Neither query nor xpath.
	if code, body := post(`{}`); code != http.StatusBadRequest {
		t.Errorf("empty request: %d %s", code, body)
	}
	// Inline document over the -maxdoc cap.
	if code, body := post(`{"query": "a*", "document": "<a><b/><b/><b/><b/><b/></a>"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized document: %d %s", code, body)
	}
	// Malformed inline document.
	if code, body := post(`{"query": "a*", "document": "<a"}`); code != http.StatusBadRequest {
		t.Errorf("malformed document: %d %s", code, body)
	}

	// A client-canceled streaming request must not wedge the server.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/match",
		strings.NewReader(`{"query": "book/title*", "stream": true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go cancel()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after canceled stream = %d", resp.StatusCode)
	}
}

func TestServerMatchTimeout(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte("<a><b/></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, shutdown := startServer(t, "-xml", xmlPath, "-timeout", "1ns")
	defer shutdown()
	resp, err := http.Post(url+"/match", "application/json",
		strings.NewReader(`{"query": "a/b*"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("expired budget: %d %s", resp.StatusCode, b)
	}
}
