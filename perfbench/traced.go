package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tpq"
	"tpq/internal/engine"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
	"tpq/internal/service"
	"tpq/internal/store"
	"tpq/internal/trace"
	"tpq/internal/xpath"
)

// The traced run replays a prefix of the workload's request stream
// in-process, on one goroutine, against services configured like the
// live tpqd. Every request goes twice through the program:
//
//   - through a twin service's HTTP handler (service.NewHandler ...
//     ServeHTTP on an in-memory writer): one service.handler_* span, the
//     in-process cost of the whole request;
//   - through each layer's public entry point on a second service, one
//     span each: the JSON request, parse, canonical key, Service.Minimize
//     (with the engine phases of a miss inside it), the unsatisfiability
//     check, render, for /match compile and evaluation, the JSON reply.
//
// The layer spans of a request should add up to its handler span; the
// difference is trace.unattributed_us. An exact-text cache hit has no
// public entry point below the handler, so its handler span is its only
// layer.

// span is one timed interval; times are ns since the replay began. A
// probe re-measures work another span already contains and stays out of
// the attribution sum.
type span struct {
	name       string
	req        int32 // position of the request in the replayed stream
	parent     int32 // index of the parent span, -1 for a root
	start, end int64
	probe      bool
}

// tracer keeps spans in memory; when off, it records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a span and returns its index (-1 when off).
func (t *tracer) add(name string, req, parent int32, start, end int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// addProbe records a probe span.
func (t *tracer) addProbe(name string, req, parent int32, start, end int64) {
	if i := t.add(name, req, parent, start, end); i >= 0 {
		t.spans[i].probe = true
	}
}

func (t *tracer) finish(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// Span names.
const (
	spanRequest      = "request"
	spanHandlerText  = "service.handler_text"
	spanHandlerXPath = "service.handler_xpath"
	spanDecode       = "service.decode"
	spanEncode       = "service.encode"
	spanParse        = "pattern.parse"
	spanCanon        = "pattern.canon" // a probe: Service.Minimize builds the key again
	spanHit          = "cache.hit"     // Service.Minimize (or MinimizeDisjunction) served from the cache
	spanMiss         = "cache.miss"    // Service.Minimize that ran the pipeline
	spanEngine       = "engine.minimize"
	spanUnsat        = "acim.unsat" // a probe: Service.Minimize ran the check already
	spanRender       = "service.render"
	spanCompile      = "match.compile"
	spanEval         = "match.eval"
	spanUnionEval    = "match.union_eval"
)

// requestTimeout is tpqd's default -timeout: the deadline its handler
// puts on each request's service call, so the direct calls carry one too.
const requestTimeout = 5 * time.Second

// maxReplay caps the requests of each replay; replayBudget caps the time
// of the first two (the on replay repeats the off replay's count).
const (
	maxReplay    = 20000
	replayBudget = 3 * time.Second
)

// replay is one in-process replay: the twin behind its handler and the
// direct service the layer calls go to.
type replay struct {
	in     *inputs
	twin   *service.Service
	h      http.Handler
	svc    *service.Service
	svcH   http.Handler // the direct service's own handler, for its /metrics
	mw     memWriter    // svcH's writer
	missed []*pattern.Pattern
	closed *tpq.Constraints
	idx    *tpq.MatchIndex
	stores []*store.Store
	w      memWriter
	seen   []bool       // per distinct request: sent before
	reply  wireReply    // the direct path's reply to the current request
	enc    bytes.Buffer // the direct path's encoded reply
	tr     tracer
	ctx    context.Context

	// phaseBase is the direct service's phase sums at the last reading.
	phaseBase [trace.NumPhases]float64

	attempted, failed int64
	firstErr          string
	// Work counters, summed over misses and /match requests.
	unsat, augmented, tests int64
	matches, answers        int64
	phaseNs                 [trace.NumPhases]int64
}

// memWriter is an in-memory http.ResponseWriter.
type memWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

func (w *memWriter) reset() {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
}

// newReplay builds the two services like tpqd builds its one: same
// constraints, default cache size, a fresh store for cold-minimize, the
// forest behind /match. Both get the workload's warm pass.
func newReplay(dir string, in *inputs, forest *tpq.Forest, idx *tpq.MatchIndex, spans bool) (*replay, error) {
	var cs *tpq.Constraints
	if in.constraints != "" {
		var err error
		if cs, err = tpq.ParseConstraints(constraintLines()...); err != nil {
			return nil, err
		}
	}
	rp := &replay{in: in, idx: idx, w: memWriter{h: make(http.Header)}, mw: memWriter{h: make(http.Header)},
		ctx: context.Background()}
	newService := func(name string) (*service.Service, error) {
		opts := service.Options{Constraints: cs, WarmStart: -1}
		if in.name == "cold-minimize" {
			st, err := store.Open(filepath.Join(dir, name), store.Options{})
			if err != nil {
				return nil, err
			}
			rp.stores = append(rp.stores, st)
			opts.Store = st
		}
		return service.New(opts), nil
	}
	var err error
	if rp.twin, err = newService("twin-store"); err != nil {
		return nil, err
	}
	if rp.svc, err = newService("direct-store"); err != nil {
		rp.close()
		return nil, err
	}
	rp.h = service.NewHandler(rp.twin, service.HandlerOptions{Forest: forest, Timeout: requestTimeout})
	rp.svcH = service.NewHandler(rp.svc, service.HandlerOptions{})
	rp.closed = rp.svc.Constraints()
	rp.seen = make([]bool, len(in.reqs))
	for _, i := range in.warm {
		r := &in.reqs[i]
		rp.seen[i] = true
		if err := rp.handle(-1, r); err != nil {
			rp.close()
			return nil, fmt.Errorf("traced warm pass: %w", err)
		}
		d, err := parse(r)
		if err != nil {
			rp.close()
			return nil, err
		}
		if p := d.Singleton(); p != nil {
			_, _, err = rp.svc.Minimize(rp.ctx, p)
		} else {
			_, _, err = rp.svc.MinimizeDisjunction(rp.ctx, d)
		}
		if err != nil {
			rp.close()
			return nil, fmt.Errorf("traced warm pass: %w", err)
		}
	}
	rp.tr = tracer{on: spans, epoch: time.Now()}
	if spans {
		rp.tr.spans = make([]span, 0, 16*maxReplay)
		if rp.phaseBase, err = rp.phaseSums(); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range []*service.Service{rp.twin, rp.svc} {
		if s != nil {
			s.Close(ctx)
		}
	}
	for _, st := range rp.stores {
		st.Close()
	}
}

func parse(r *request) (*pattern.Disjunction, error) {
	if r.xpath {
		return xpath.FromXPathDisjunctive(r.text)
	}
	return pattern.ParseDisjunctive(r.text)
}

func (rp *replay) fail(err error) {
	rp.failed++
	if rp.firstErr == "" {
		rp.firstErr = err.Error()
	}
}

// one replays the stream's request at position id: through the twin's
// handler and through the layers, alternating which goes first so that
// neither is always the one running on caches the other warmed. A
// request seen before is a cache hit (the workloads repeat only requests
// far fewer than the cache holds); a text request seen before takes the
// exact-text path, which has no layer below the handler.
func (rp *replay) one(id int32, k int32) {
	rp.attempted++
	r := &rp.in.reqs[k]
	hit := rp.seen[k]
	direct := func() {
		if !hit || r.xpath || r.path != "/minimize" {
			rp.direct(id, r, hit)
		}
	}
	handle := func() {
		if err := rp.handle(id, r); err != nil {
			rp.fail(err)
		}
	}
	if id%2 == 0 {
		handle()
		direct()
	} else {
		direct()
		handle()
	}
	rp.seen[k] = true
}

// handle serves r through the twin's handler, one service.handler_*
// span, and checks the reply.
func (rp *replay) handle(id int32, r *request) error {
	tr := &rp.tr
	name := spanHandlerText
	if r.xpath {
		name = spanHandlerXPath
	}
	hreq := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	rp.w.reset()
	t := tr.now()
	rp.h.ServeHTTP(&rp.w, hreq)
	tr.add(name, id, -1, t, tr.now())
	if err := r.check(rp.w.status, rp.w.buf.Bytes()); err != nil {
		return fmt.Errorf("handler: %w", err)
	}
	return nil
}

// direct runs r through each layer's entry point, one span each, under a
// request span.
func (rp *replay) direct(id int32, r *request, hit bool) {
	tr := &rp.tr
	root := tr.add(spanRequest, id, -1, tr.now(), 0)
	defer tr.finish(root)
	t := tr.now()
	var req wireRequest
	err := json.Unmarshal(r.body, &req)
	tr.add(spanDecode, id, root, t, tr.now())
	if err != nil {
		rp.fail(err)
		return
	}
	t = tr.now()
	d, err := parse(r)
	tr.add(spanParse, id, root, t, tr.now())
	if err != nil {
		rp.fail(err)
		return
	}
	p := d.Singleton()

	var key [256]byte
	t = tr.now()
	if p != nil {
		p.AppendCanonical(key[:0])
	} else {
		d.AppendCanonical(key[:0])
	}
	tr.addProbe(spanCanon, id, root, t, tr.now())

	rp.reply = wireReply{CacheHit: hit}
	if r.path == "/match" {
		rp.match(id, root, r, d, p)
	} else {
		rp.minimize(id, root, r, p, hit)
	}
	t = tr.now()
	rp.enc.Reset()
	enc := json.NewEncoder(&rp.enc)
	enc.SetIndent("", "  ")
	err = enc.Encode(&rp.reply)
	tr.add(spanEncode, id, root, t, tr.now())
	if err != nil {
		rp.fail(err)
	}
}

// minimize is the /minimize request's minimization and rendering: a
// Service.Minimize call on a hit, the miss path otherwise.
func (rp *replay) minimize(id, root int32, r *request, p *pattern.Pattern, hit bool) {
	tr := &rp.tr
	var (
		out *pattern.Pattern
		err error
	)
	if hit {
		t := tr.now()
		ctx, cancel := context.WithTimeout(rp.ctx, requestTimeout)
		out, _, err = rp.svc.Minimize(ctx, p)
		cancel()
		tr.add(spanHit, id, root, t, tr.now())
		if err != nil {
			rp.fail(err)
			return
		}
	} else if out = rp.miss(id, root, r, p); out == nil {
		return
	}
	// The output text is rendered by Service.Minimize itself when it
	// caches an entry, and served from there on later hits, so the text
	// render is a probe; the XPath rendering is the handler's own work.
	t := tr.now()
	if r.xpath {
		rp.reply.OutputXPath, err = xpath.ToXPath(out)
		tr.add(spanRender, id, root, t, tr.now())
	} else {
		rp.reply.Output = out.String()
		tr.addProbe(spanRender, id, root, t, tr.now())
	}
	if err != nil {
		rp.fail(err)
		return
	}
	if r.xpath {
		rp.reply.Output = out.String()
	}
	rp.reply.InputSize, rp.reply.OutputSize = p.Size(), out.Size()
	if rp.reply.Output != r.want.output {
		rp.fail(fmt.Errorf("direct %q: got %q, want %q", r.text, rp.reply.Output, r.want.output))
	}
}

// wireRequest and wireReply mirror the JSON shapes of tpqd's /minimize
// and /match requests and replies, so the HTTP front's codec work can be
// timed on the same bytes and values.
type wireRequest struct {
	Query string `json:"query,omitempty"`
	XPath string `json:"xpath,omitempty"`
}

type wireReply struct {
	Count         int    `json:"count,omitempty"`
	Output        string `json:"output"`
	OutputXPath   string `json:"outputXpath,omitempty"`
	InputSize     int    `json:"inputSize,omitempty"`
	OutputSize    int    `json:"outputSize"`
	CDMRemoved    int    `json:"cdmRemoved,omitempty"`
	ACIMRemoved   int    `json:"acimRemoved,omitempty"`
	Unsatisfiable bool   `json:"unsatisfiable,omitempty"`
	CacheHit      bool   `json:"cacheHit"`
	Micros        int64  `json:"micros"`
}

// miss is Service.Minimize on a miss: one cache.miss span, with the
// engine phases laid out under it. The service's unsatisfiability check
// has no entry point of its own: it is re-run once through the facade as
// a probe, right after the phases are read.
func (rp *replay) miss(id, root int32, r *request, p *pattern.Pattern) *pattern.Pattern {
	tr := &rp.tr
	t := tr.now()
	ctx, cancel := context.WithTimeout(rp.ctx, requestTimeout)
	out, _, err := rp.svc.Minimize(ctx, p)
	cancel()
	end := tr.now()
	if err != nil {
		rp.fail(err)
		return nil
	}
	rp.missed = append(rp.missed, p)
	if miss := tr.add(spanMiss, id, root, t, end); miss >= 0 {
		rp.layOutPhases(miss)
	}

	t = tr.now()
	unsat := tpq.Unsatisfiable(p, rp.closed)
	tr.addProbe(spanUnsat, id, root, t, tr.now())
	rp.reply.Unsatisfiable = unsat
	if unsat {
		rp.unsat++
	}
	if unsat != r.want.unsat {
		rp.fail(fmt.Errorf("direct %q: unsatisfiable %v, want %v", r.text, unsat, r.want.unsat))
	}
	return out
}

// layOutPhases lays out the engine phases of a miss under its cache.miss
// span. They are the direct service's per-phase duration sums (its
// /metrics phase histograms) read now, minus the previous reading: only a
// pipeline run moves these sums, and the direct service has run one, this
// miss, since then. So each phase is timed once, on the one computation.
// The reading sits outside every layer span, just before the unsat probe,
// which stays out of the attribution and takes the cache misses the
// reading leaves. The phases become child spans in pipeline order.
func (rp *replay) layOutPhases(miss int32) {
	after, err := rp.phaseSums()
	if err != nil {
		rp.fail(err)
		return
	}
	var d [trace.NumPhases]int64
	for ph := range d {
		d[ph] = int64((after[ph] - rp.phaseBase[ph]) * 1e9)
		rp.phaseNs[ph] += d[ph]
	}
	rp.phaseBase = after
	tr := &rp.tr
	id, t := tr.spans[miss].req, tr.spans[miss].start
	eng := tr.add(spanEngine, id, miss, t, t+d[trace.CDM]+d[trace.ACIM])
	tr.add("engine.cdm", id, eng, t, t+d[trace.CDM])
	offset := t + d[trace.CDM]
	acim := tr.add("engine.acim", id, eng, offset, offset+d[trace.ACIM])
	for _, ph := range []trace.Phase{trace.Chase, trace.CIM, trace.Compact} {
		tr.add("engine."+ph.String(), id, acim, offset, offset+d[ph])
		offset += d[ph]
	}
}

// enginePhases are the pipeline phases a miss runs, each read from the
// direct service's tpq_phase_duration_seconds histogram.
var enginePhases = []trace.Phase{trace.Chase, trace.CDM, trace.ACIM, trace.CIM, trace.Compact}

// phaseSums reads the direct service's per-phase duration sums, in
// seconds, from the tpq_phase_duration_seconds_sum series of its own
// /metrics. A missing series is an error, so a change to the exposition
// fails the run instead of zeroing the engine figures.
func (rp *replay) phaseSums() ([trace.NumPhases]float64, error) {
	var out [trace.NumPhases]float64
	rp.mw.reset()
	rp.svcH.ServeHTTP(&rp.mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	series := parseExposition(rp.mw.buf.Bytes())
	for _, ph := range enginePhases {
		name := `tpq_phase_duration_seconds_sum{phase="` + ph.String() + `"}`
		v, ok := series[name]
		if !ok {
			return out, fmt.Errorf("the service's /metrics has no %s", name)
		}
		out[ph] = v
	}
	return out, nil
}

// countEngineWork re-runs the engine on the replay's misses to count the
// augmented nodes and leaf tests each did, the two engine counts no
// /metrics family carries. Counts are deterministic, so the re-run
// measures no time and repeats nothing that was timed.
func (rp *replay) countEngineWork() error {
	eng := engine.New(engine.Options{Constraints: rp.closed})
	for _, p := range rp.missed {
		et := trace.New()
		if _, err := eng.MinimizeContextTraced(rp.ctx, p, et); err != nil {
			return err
		}
		rp.augmented += et.Count(trace.Augmented)
		rp.tests += et.Count(trace.Tests)
	}
	return nil
}

// match runs a /match request's minimization, compilation and
// evaluation, one span each.
func (rp *replay) match(id, root int32, r *request, d *pattern.Disjunction, p *pattern.Pattern) {
	tr := &rp.tr
	var (
		outs []*pattern.Pattern
		od   *pattern.Disjunction
		text string
		err  error
	)
	// One deadline covers minimization and evaluation, as in the handler.
	t := tr.now()
	ctx, cancel := context.WithTimeout(rp.ctx, requestTimeout)
	defer cancel()
	if p != nil {
		var out *pattern.Pattern
		out, _, err = rp.svc.Minimize(ctx, p)
		outs = []*pattern.Pattern{out}
	} else {
		od, _, err = rp.svc.MinimizeDisjunction(ctx, d)
		if od != nil {
			outs = od.Disjuncts
		}
	}
	tr.add(spanHit, id, root, t, tr.now())
	if err != nil {
		rp.fail(err)
		return
	}
	t = tr.now()
	qs := make([]*stream.Query, len(outs))
	for i, o := range outs {
		if qs[i], err = stream.Compile(o, rp.idx, stream.Options{}); err != nil {
			break
		}
	}
	tr.add(spanCompile, id, root, t, tr.now())
	if err != nil {
		rp.fail(err)
		return
	}
	n := 0
	t = tr.now()
	if len(qs) == 1 {
		for range qs[0].Answers(ctx) {
			n++
		}
		tr.add(spanEval, id, root, t, tr.now())
	} else {
		for range stream.UnionAnswers(ctx, qs) {
			n++
		}
		tr.add(spanUnionEval, id, root, t, tr.now())
	}
	t = tr.now()
	if p != nil {
		text = outs[0].String()
	} else {
		text = od.String()
	}
	tr.add(spanRender, id, root, t, tr.now())
	size := 0
	for _, o := range outs {
		size += o.Size()
	}
	rp.reply.Count, rp.reply.Output, rp.reply.OutputSize = n, text, size
	rp.matches++
	rp.answers += int64(n)
	if n != r.want.count || text == "" {
		rp.fail(fmt.Errorf("direct /match %q: %d answers, want %d", r.text, n, r.want.count))
	}
}

// run replays the stream prefix: up to limit requests, stopping early
// once the budget is spent. It returns the count and the wall time.
func (rp *replay) run(limit int, budget time.Duration) (int, time.Duration) {
	start := time.Now()
	n := 0
	for ; n < limit && n < len(rp.in.stream); n++ {
		if n%64 == 0 && time.Since(start) > budget {
			break
		}
		rp.one(int32(n), rp.in.stream[n])
	}
	return n, time.Since(start)
}

// tracedResult summarizes the traced run.
type tracedResult struct {
	on                 *replay
	attempted, failed  int64
	requests           int
	offWall, onWall    time.Duration
	xmlParse, indexBld time.Duration
	layers             map[string]*layerStat
	handler, handled   float64 // ns and count over every replayed request
	attributed         float64 // ns
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count       int
	total, self int64
}

func (ls *layerStat) meanUs() float64 {
	if ls == nil || ls.count == 0 {
		return 0
	}
	return float64(ls.total) / float64(ls.count) / 1e3
}

// tracedRun replays the stream prefix twice on fresh services, with
// spans off and then on; the on replay gives the layer numbers, the pair
// gives the tracing overhead.
func tracedRun(dir string, in *inputs, window time.Duration, spansOut string) (*tracedResult, error) {
	res := &tracedResult{}
	var (
		forest *tpq.Forest
		idx    *tpq.MatchIndex
	)
	if in.xml != nil {
		t0 := time.Now()
		f, err := tpq.ParseXML(bytes.NewReader(in.xml))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		idx = tpq.NewMatchIndex(f)
		res.xmlParse, res.indexBld = t1.Sub(t0), time.Since(t1)
		forest = f
	}
	budget := min(window/2, replayBudget)
	// A first, discarded replay takes the process's one-time costs (heap
	// growth, page faults) off the two that are compared.
	var (
		n       int
		offWall time.Duration
	)
	for _, pass := range []string{"replay-warm", "replay-off"} {
		off, err := newReplay(filepath.Join(dir, pass), in, forest, idx, false)
		if err != nil {
			return nil, err
		}
		n, offWall = off.run(maxReplay, budget)
		off.close()
		res.attempted += off.attempted
		res.failed += off.failed
		if off.firstErr != "" {
			fmt.Fprintln(os.Stderr, "perfbench: traced run failure:", off.firstErr)
		}
	}
	on, err := newReplay(filepath.Join(dir, "replay-on"), in, forest, idx, true)
	if err != nil {
		return nil, err
	}
	_, onWall := on.run(n, time.Duration(1<<62))
	err = on.countEngineWork()
	on.close()
	if err != nil {
		return nil, err
	}
	res.on, res.requests, res.offWall, res.onWall = on, n, offWall, onWall
	res.attempted += on.attempted
	res.failed += on.failed
	if on.firstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: traced run failure:", on.firstErr)
	}
	res.aggregate()
	if spansOut != "" {
		if err := writeSpans(spansOut, on.tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// aggregate folds the spans into per-name totals and self times, and
// the per-request attribution: a request's layer time is the sum of its
// direct replay's non-probe layer spans, or, for an exact-text hit, its
// handler span.
func (res *tracedResult) aggregate() {
	spans := res.on.tr.spans
	res.layers = make(map[string]*layerStat)
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	handlerNs := make(map[int32]int64)
	layerNs := make(map[int32]int64)
	direct := make(map[int32]bool)
	for i, s := range spans {
		d := s.end - s.start
		ls := res.layers[s.name]
		if ls == nil {
			ls = &layerStat{}
			res.layers[s.name] = ls
		}
		ls.count++
		ls.total += d
		ls.self += d - childNs[i]
		switch {
		case s.name == spanHandlerText || s.name == spanHandlerXPath:
			handlerNs[s.req] += d
		case s.name == spanRequest:
			direct[s.req] = true
		case s.parent >= 0 && spans[s.parent].name == spanRequest && !s.probe:
			layerNs[s.req] += d
		}
	}
	for req, h := range handlerNs {
		res.handler += float64(h)
		res.handled++
		if direct[req] {
			res.attributed += float64(layerNs[req])
		} else {
			res.attributed += float64(h)
		}
	}
}

// writeSpans writes the spans as JSON lines, one per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bytes.NewBuffer(make([]byte, 0, 64*len(spans)))
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"req":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"probe":%t}`+"\n",
			s.name, s.req, s.parent, s.start, s.end, s.probe)
	}
	if _, err := f.Write(w.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (res *tracedResult) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench: traced replay: %d requests; wall %.3fs spans off, %.3fs spans on; %d spans\n",
		res.requests, res.offWall.Seconds(), res.onWall.Seconds(), len(res.on.tr.spans))
	names := make([]string, 0, len(res.layers))
	for n := range res.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %-22s %8s %12s %12s\n", "span", "count", "mean_us", "self_mean_us")
	for _, n := range names {
		ls := res.layers[n]
		fmt.Fprintf(w, "perfbench: %-22s %8d %12.3f %12.3f\n", n, ls.count, ls.meanUs(),
			float64(ls.self)/float64(ls.count)/1e3)
	}
	fmt.Fprintf(w, "perfbench: trace.coverage %.4f over %d requests\n", res.coverage(), int(res.handled))
}

func (res *tracedResult) coverage() float64 {
	if res.handler == 0 {
		return 0
	}
	return res.attributed / res.handler
}

func (res *tracedResult) layer(name string) float64 { return res.layers[name].meanUs() }

// handlerUs is the mean in-process handler time over every request.
func (res *tracedResult) handlerUs() float64 {
	if res.handled == 0 {
		return 0
	}
	return res.handler / res.handled / 1e3
}

// perLayer is the -trace 1 metric set: the traced replay's layer times
// and work counters, plus counter deltas of the live run.
func perLayer(lr *liveResult, res *tracedResult) map[string]metric {
	rp := res.on
	misses := float64(len(rp.missed))
	perMiss := func(v int64) float64 { return ratio(float64(v), misses) }
	phaseUs := func(p trace.Phase) float64 { return ratio(float64(rp.phaseNs[p])/1e3, misses) }
	delta := func(series string) float64 { return lr.after.get(series) - lr.before.get(series) }
	reqs := delta("tpq_requests_total")
	puts := delta("tpq_store_puts_total")
	runs := delta("tpq_minimizations_total")
	perRun := func(series ...string) float64 {
		sum := 0.0
		for _, s := range series {
			sum += delta(s)
		}
		return ratio(sum, runs)
	}
	planHits, plansCompiled := delta("tpq_plan_hits_total"), delta("tpq_plans_compiled_total")
	evalNs := res.layers[spanEval].totalNs() + res.layers[spanUnionEval].totalNs()
	completed := lr.completed()
	return map[string]metric{
		"service.handler_us":          {res.handlerUs(), "us"},
		"service.handler_text_us":     {res.layer(spanHandlerText), "us"},
		"service.handler_xpath_us":    {res.layer(spanHandlerXPath), "us"},
		"service.codec_us":            {res.layer(spanDecode) + res.layer(spanEncode), "us"},
		"service.render_us":           {res.layer(spanRender), "us"},
		"service.outside_us":          {lr.cpuPerReq() - res.handlerUs(), "us"},
		"pattern.parse_us":            {res.layer(spanParse), "us"},
		"pattern.canon_us":            {res.layer(spanCanon), "us"},
		"cache.hit_us":                {res.layer(spanHit), "us"},
		"cache.hit_ratio":             {ratio(delta("tpq_cache_hits_total"), reqs), "ratio"},
		"cache.evictions_per_req":     {ratio(delta("tpq_cache_evictions_total"), reqs), "count"},
		"cache.merges":                {delta("tpq_inflight_merges_total"), "count"},
		"cache.or_hit_ratio":          {ratio(delta("tpq_or_cache_hits_total"), delta("tpq_or_requests_total")), "ratio"},
		"engine.minimize_us":          {res.layer(spanEngine), "us"},
		"engine.chase_us":             {phaseUs(trace.Chase), "us"},
		"engine.cdm_us":               {phaseUs(trace.CDM), "us"},
		"engine.acim_us":              {phaseUs(trace.ACIM), "us"},
		"engine.cim_us":               {phaseUs(trace.CIM), "us"},
		"engine.compact_us":           {phaseUs(trace.Compact), "us"},
		"engine.augmented":            {perMiss(rp.augmented), "count"},
		"engine.leaf_tests":           {perMiss(rp.tests), "count"},
		"engine.tables_built":         {perRun(`tpq_tables_total{kind="built"}`), "count"},
		"engine.tables_derived":       {perRun(`tpq_tables_total{kind="derived"}`), "count"},
		"engine.nodes_removed":        {perRun(`tpq_nodes_removed_total{phase="cdm"}`, `tpq_nodes_removed_total{phase="acim"}`), "count"},
		"engine.plan_hit_ratio":       {ratio(planHits, planHits+plansCompiled), "ratio"},
		"acim.unsat_us":               {res.layer(spanUnsat), "us"},
		"acim.unsat_frac":             {perMiss(rp.unsat), "ratio"},
		"store.puts_per_miss":         {ratio(puts, delta("tpq_cache_misses_total")), "count"},
		"store.dropped":               {delta("tpq_store_dropped_total"), "count"},
		"store.log_bytes_per_put":     {ratio(delta("tpq_store_log_bytes"), puts), "bytes"},
		"match.compile_us":            {res.layer(spanCompile), "us"},
		"match.eval_us":               {res.layer(spanEval), "us"},
		"match.union_eval_us":         {res.layer(spanUnionEval), "us"},
		"match.ns_per_answer":         {ratio(float64(evalNs), float64(rp.answers)), "ns"},
		"match.answers_per_req":       {ratio(float64(rp.answers), float64(rp.matches)), "count"},
		"data.xml_parse_s":            {res.xmlParse.Seconds(), "s"},
		"match.index_build_s":         {res.indexBld.Seconds(), "s"},
		"runtime.alloc_bytes_per_req": {ratio(lr.after.memstats.TotalAlloc-lr.before.memstats.TotalAlloc, completed), "bytes"},
		"runtime.mallocs_per_req":     {ratio(lr.after.memstats.Mallocs-lr.before.memstats.Mallocs, completed), "count"},
		"runtime.gc_per_kreq":         {ratio(1000*(lr.after.memstats.NumGC-lr.before.memstats.NumGC), completed), "count"},
		"loadgen.cpu_us_per_req":      {lr.selfCPUPerReq(), "us"},
		"loadgen.latency_p90_us":      {quantile(lr.lat, 0.90), "us"},
		"loadgen.throughput_rps":      {lr.throughput(), "1/s"},
		"loadgen.latency_p99_us":      {quantile(lr.lat, 0.99), "us"},
		"loadgen.error_frac":          {lr.errorFrac(), "ratio"},
		"host.steal_frac":             {lr.stealFrac(), "ratio"},
		"trace.coverage":              {res.coverage(), "ratio"},
		"trace.unattributed_us":       {ratio(res.handler-res.attributed, res.handled) / 1e3, "us"},
		"trace.overhead_frac":         {res.onWall.Seconds()/res.offWall.Seconds() - 1, "ratio"},
	}
}

func (ls *layerStat) totalNs() int64 {
	if ls == nil {
		return 0
	}
	return ls.total
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
