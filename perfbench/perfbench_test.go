package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tpq"
	"tpq/internal/service"
)

// TestDigestsPinned pins the generated inputs of every workload at seed 1
// (cold-minimize sized for a 1-second window): identical seeds must give
// byte-identical request streams and forests, and a change to a
// generator must show up here.
func TestDigestsPinned(t *testing.T) {
	want := map[string]string{
		"hot-hits":      "151d48a8ff3bc534",
		"cold-minimize": "9367a93053c8a969",
		"match-forest":  "c5bb63007cde3c7b",
	}
	for _, name := range workloadNames {
		a, err := buildInputs(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInputs(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInputs(name, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a.digest())
		}
		if a.digest() != want[name] {
			t.Errorf("%s: seed 1 digest %s, pinned %s", name, a.digest(), want[name])
		}
	}
}

// inProcess serves a workload from an in-process handler configured
// like tpqd for it.
func inProcess(t *testing.T, in *inputs) *httptest.Server {
	t.Helper()
	opts := service.Options{}
	var hopts service.HandlerOptions
	if in.constraints != "" {
		cs, err := tpq.ParseConstraints(constraintLines()...)
		if err != nil {
			t.Fatal(err)
		}
		opts.Constraints = cs
	}
	if in.xml != nil {
		f, err := tpq.ParseXML(bytes.NewReader(in.xml))
		if err != nil {
			t.Fatal(err)
		}
		hopts.Forest = f
	}
	srv := httptest.NewServer(service.NewHandler(service.New(opts), hopts))
	t.Cleanup(srv.Close)
	return srv
}

// TestCorruptedExpectationIsCaught shows the oracle is not vacuous: every
// reply checks out against the facade's answers, and once an answer is
// corrupted — a minimized output, an unsatisfiability verdict, a match
// count — the check rejects the reply and the closed loop counts it.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	small := map[string]func() (*inputs, error){
		"hot-hits":      func() (*inputs, error) { return hotHits(1, 8, 256) },
		"cold-minimize": func() (*inputs, error) { return coldMinimize(1, 64) },
		"match-forest":  func() (*inputs, error) { return matchForest(1, 40, 256) },
	}
	for name, build := range small {
		t.Run(name, func(t *testing.T) {
			in, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := computeExpectations(in); err != nil {
				t.Fatal(err)
			}
			srv := inProcess(t, in)
			addr := strings.TrimPrefix(srv.URL, "http://")
			if err := warmPass(addr, in); err != nil {
				t.Fatal(err)
			}
			for i := range in.reqs {
				r := &in.reqs[i]
				status, body := post(t, srv, r)
				if err := r.check(status, body); err != nil {
					t.Fatalf("correct reply rejected: %v", err)
				}
				bad := *r
				switch {
				case r.path == "/match":
					bad.want.count++
				case name == "cold-minimize" && i%2 == 1:
					bad.want.unsat = !bad.want.unsat
				default:
					bad.want.output += "/x"
				}
				if bad.check(status, body) == nil {
					t.Fatalf("corrupted expectation %+v accepted reply %s", bad.want, body)
				}
			}

			// Corrupt the hottest request and drive the closed loop.
			hot := &in.reqs[in.stream[0]]
			hot.want.output += "/x"
			hot.want.count++
			lr := closedLoop(addr, in, 2, 200*time.Millisecond, 0, nil)
			if lr.wrong == 0 || lr.failed() != lr.wrong {
				t.Fatalf("closed loop counted %d wrong of %d attempted (%d failed)", lr.wrong, lr.attempted, lr.failed())
			}
		})
	}
}

func post(t *testing.T, srv *httptest.Server, r *request) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestDependenciesSurviveRoadmap keeps the benchmark off code the
// ROADMAP schedules for deletion: it imports only entry points the
// ROADMAP keeps, and its sources name none of the scheduled deletions,
// so no later change has to edit the benchmark to land.
func TestDependenciesSurviveRoadmap(t *testing.T) {
	allowed := map[string]bool{
		"tpq": true, "tpq/internal/service": true, "tpq/internal/engine": true,
		"tpq/internal/trace": true, "tpq/internal/match/stream": true, "tpq/internal/pattern": true,
		"tpq/internal/xpath": true, "tpq/internal/data": true, "tpq/internal/workload": true,
		"tpq/internal/store": true,
	}
	scheduled := []string{
		"AnswersIndexed", "CountIndexed", "MatchIndexed", "FindMappingMap", "MapTables",
		"chase.Augment", "MinimizeDirect", "MinimizeVirtual", "internal/shard", "internal/cim",
		`"-peers"`, `"-self"`,
	}
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, "run.sh")
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range scheduled {
			if bytes.Contains(src, []byte(name)) {
				t.Errorf("%s names %s, which the ROADMAP schedules for deletion", path, name)
			}
		}
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if (p == "tpq" || strings.HasPrefix(p, "tpq/")) && !allowed[p] {
				t.Errorf("%s imports %s, not an entry point the ROADMAP keeps", path, p)
			}
		}
	}
}

// TestPoolExhaustionIsReported drains a small cold-minimize pool: the
// closed loop stops when no never-sent request is left and says so, which
// fails a live run instead of shortening its window.
func TestPoolExhaustionIsReported(t *testing.T) {
	in, err := coldMinimize(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := computeExpectations(in); err != nil {
		t.Fatal(err)
	}
	srv := inProcess(t, in)
	lr := closedLoop(strings.TrimPrefix(srv.URL, "http://"), in, 2, 10*time.Second, 0, nil)
	if !lr.exhausted || lr.attempted != int64(len(in.stream)) || lr.failed() != 0 {
		t.Fatalf("exhausted %v after %d of %d requests (%d failed)", lr.exhausted, lr.attempted, len(in.stream), lr.failed())
	}
}
