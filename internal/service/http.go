package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
	"tpq/internal/xpath"
)

// HandlerOptions configure the HTTP front of a Service.
type HandlerOptions struct {
	// Forest is the optional tree database behind /match; without it the
	// endpoint requires an inline document per request.
	Forest *data.Forest
	// Timeout bounds each request's minimization work; 0 means no limit.
	Timeout time.Duration
	// MaxBatch caps the number of queries in one /minimize POST
	// (default 1024).
	MaxBatch int
	// MaxBody caps the request body in bytes (default 1 MiB).
	MaxBody int64
	// MaxDocNodes caps the node count of an inline /match document
	// (default 100000); larger documents are rejected with 413.
	MaxDocNodes int
}

// NewHandler returns the HTTP+JSON API over s:
//
//	POST /minimize  {"query": "a*[/b, //c]"}          — text syntax
//	                {"query": "a*[/or(b, c)]"}        — disjunctive (OR) syntax
//	                {"xpath": "/a[b]//c"}             — XPath input
//	                {"xpath": "/a//b | /c//b"}        — XPath union
//	                {"queries": ["a*/b", ...]}        — batch, parallelized
//	                                                    (conjunctive only)
//	GET  /stats     counters, cache state, latency histogram
//	GET  /metrics   the same counters plus per-phase duration histograms
//	                in the Prometheus text exposition format
//	GET  /healthz   "ok", or 503 once shutdown has begun
//	POST /match     {"query": ...} minimized (through the cache), then
//	                evaluated against the loaded document — or against an
//	                inline {"document": "<xml...>"} — by the twig
//	                engine. {"limit": n} truncates the answers
//	                reported (the evaluation itself runs in full);
//	                {"stream": true} switches the response to NDJSON:
//	                one {"id", "types"} line per answer in document
//	                order (flushed incrementally), then a
//	                {"done": true, ...} summary line.
//
// Responses are JSON; errors arrive as {"error": "..."} with a matching
// status code (400 malformed input, 413 oversized body, batch or
// document, 503 shutting down, 504 deadline).
func NewHandler(s *Service, opts HandlerOptions) http.Handler {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1024
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 1 << 20
	}
	if opts.MaxDocNodes <= 0 {
		opts.MaxDocNodes = 100_000
	}
	h := &handler{svc: s, opts: opts}
	if opts.Forest != nil {
		h.index = match.NewForestIndex(opts.Forest)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/minimize", h.minimize)
	mux.HandleFunc("/match", h.match)
	mux.HandleFunc("/stats", h.stats)
	mux.HandleFunc("/metrics", s.metricsHandler)
	mux.HandleFunc("/healthz", h.healthz)
	return mux
}

type handler struct {
	svc   *Service
	opts  HandlerOptions
	index *match.ForestIndex
}

// minimizeRequest is the /minimize (and /match) wire format. Exactly one
// of Query, XPath, Queries should be set.
type minimizeRequest struct {
	Query   string   `json:"query,omitempty"`
	XPath   string   `json:"xpath,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// minimizeResponse is one minimization result on the wire.
type minimizeResponse struct {
	Output        string `json:"output"`
	OutputXPath   string `json:"outputXpath,omitempty"`
	InputSize     int    `json:"inputSize"`
	OutputSize    int    `json:"outputSize"`
	CDMRemoved    int    `json:"cdmRemoved"`
	ACIMRemoved   int    `json:"acimRemoved"`
	Unsatisfiable bool   `json:"unsatisfiable,omitempty"`
	CacheHit      bool   `json:"cacheHit"`
	Merged        bool   `json:"merged,omitempty"`
	Micros        int64  `json:"micros"`

	// Disjunctive requests only: input disjunct count and how many were
	// dropped (absorption and unsatisfiability respectively).
	Disjuncts int `json:"disjuncts,omitempty"`
	Absorbed  int `json:"absorbed,omitempty"`
	Unsat     int `json:"unsatDisjuncts,omitempty"`
}

type batchResponse struct {
	Results []minimizeResponse `json:"results"`
}

// matchRequest is the /match wire format: one query (text or XPath), an
// optional inline XML document, an optional answer limit, and the
// streaming switch.
type matchRequest struct {
	Query    string `json:"query,omitempty"`
	XPath    string `json:"xpath,omitempty"`
	Document string `json:"document,omitempty"`
	Limit    int    `json:"limit,omitempty"`
	Stream   bool   `json:"stream,omitempty"`
}

type matchResponse struct {
	Count      int    `json:"count"`
	Truncated  bool   `json:"truncated,omitempty"`
	Output     string `json:"output"`
	OutputSize int    `json:"outputSize"`
	CacheHit   bool   `json:"cacheHit"`
	Micros     int64  `json:"micros"`
}

// matchAnswer is one NDJSON answer line of a streamed /match response.
type matchAnswer struct {
	ID    int            `json:"id"`
	Types []pattern.Type `json:"types"`
}

// matchSummary is the final NDJSON line of a streamed /match response.
type matchSummary struct {
	Done      bool   `json:"done"`
	Count     int    `json:"count"`
	Truncated bool   `json:"truncated,omitempty"`
	Output    string `json:"output"`
	CacheHit  bool   `json:"cacheHit"`
	Micros    int64  `json:"micros"`
	Error     string `json:"error,omitempty"`
}

// NDJSONContentType is the content type of streamed /match responses.
const NDJSONContentType = "application/x-ndjson"

// Streamed answers are flushed to the client every streamFlushEvery
// lines, or sooner once streamFlushInterval has passed since the last
// flush — bounded latency for slow producers, bounded syscall overhead
// for fast ones. The write path itself applies backpressure: a slow
// reader blocks the answer walk, which holds only its answer row.
const (
	streamFlushEvery    = 64
	streamFlushInterval = 100 * time.Millisecond
)

func (h *handler) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.opts.Timeout > 0 {
		return context.WithTimeout(r.Context(), h.opts.Timeout)
	}
	return r.Context(), func() {}
}

// bodyPool holds the per-request read buffers: bodies are read into
// pooled scratch and unmarshaled from it, instead of allocating a
// json.Decoder plus its bufio layer per request.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readBody drains r into a pooled buffer. The returned release func
// recycles the buffer; the caller must not retain the bytes past it.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) (buf []byte, release func(), err error) {
	bp := bodyPool.Get().(*[]byte)
	buf = (*bp)[:0]
	body := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, nil, rerr
		}
	}
	return buf, func() { *bp = buf; bodyPool.Put(bp) }, nil
}

func (h *handler) readRequest(w http.ResponseWriter, r *http.Request) (*minimizeRequest, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON body")
		return nil, false
	}
	buf, release, err := readBody(w, r, h.opts.MaxBody)
	if err != nil {
		writeDecodeError(w, err)
		return nil, false
	}
	defer release()
	var req minimizeRequest
	if err := json.Unmarshal(buf, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	return &req, true
}

// parseOne turns the request's single-query fields into a disjunction,
// remembering whether the caller spoke XPath. Conjunctive queries (the
// overwhelming majority) come back as singletons and take the same
// serving path they always did; or(...) text and |-unions in XPath
// distribute into multi-disjunct unions. Parse time is observed under
// the Parse phase — the algorithm packages never see unparsed text, so
// this is where that histogram is fed.
func (h *handler) parseOne(req *minimizeRequest) (*pattern.Disjunction, bool, error) {
	start := time.Now()
	defer func() { h.svc.ObserveParse(time.Since(start)) }()
	switch {
	case req.Query != "":
		d, err := pattern.ParseDisjunctive(req.Query)
		return d, false, err
	case req.XPath != "":
		d, err := xpath.FromXPathDisjunctive(req.XPath)
		return d, true, err
	default:
		return nil, false, errors.New(`need "query", "xpath" or "queries"`)
	}
}

func (h *handler) minimize(w http.ResponseWriter, r *http.Request) {
	req, ok := h.readRequest(w, r)
	if !ok {
		return
	}
	if req.Query != "" && len(req.Queries) == 0 {
		// Exact-text fast path: byte-identical query text seen before and
		// still cached — skip the parse and serve the pre-rendered bytes.
		start := time.Now()
		if e, _, ok := h.svc.hitText(req.Query); ok && len(e.hitJSON) > 0 {
			writeHitResponse(w, e, time.Since(start).Microseconds())
			return
		}
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()

	if len(req.Queries) > 0 {
		if req.Query != "" || req.XPath != "" {
			writeError(w, http.StatusBadRequest, `"queries" excludes "query" and "xpath"`)
			return
		}
		if len(req.Queries) > h.opts.MaxBatch {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), h.opts.MaxBatch))
			return
		}
		queries := make([]*pattern.Pattern, len(req.Queries))
		parseStart := time.Now()
		for i, src := range req.Queries {
			p, err := pattern.Parse(src)
			if err != nil {
				h.svc.ObserveParse(time.Since(parseStart))
				writeError(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
				return
			}
			queries[i] = p
		}
		h.svc.ObserveParse(time.Since(parseStart))
		start := time.Now()
		outs, reps, err := h.svc.MinimizeBatch(ctx, queries)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		micros := time.Since(start).Microseconds()
		resp := batchResponse{Results: make([]minimizeResponse, len(outs))}
		for i := range outs {
			resp.Results[i] = toResponse(outs[i], reps[i], micros/int64(len(outs)))
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	d, wasXPath, err := h.parseOne(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p := d.Singleton()
	if p == nil {
		h.minimizeOr(w, ctx, d, wasXPath)
		return
	}
	start := time.Now()
	e, rep, err := h.svc.minimizeEntry(ctx, p)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	micros := time.Since(start).Microseconds()
	if !wasXPath {
		h.svc.registerText(req.Query, e)
	}
	if rep.CacheHit && !rep.Merged && !wasXPath && len(e.hitJSON) > 0 {
		// Repeat hit: the response except for "micros" was rendered when
		// the entry was cached — append the digits and serve the bytes.
		writeHitResponse(w, e, micros)
		return
	}
	out := e.text
	if out == "" {
		out = e.out.String()
	}
	resp := minimizeResponse{
		Output:        out,
		InputSize:     rep.InputSize,
		OutputSize:    rep.OutputSize,
		CDMRemoved:    rep.CDMRemoved,
		ACIMRemoved:   rep.ACIMRemoved,
		Unsatisfiable: rep.Unsatisfiable,
		CacheHit:      rep.CacheHit,
		Merged:        rep.Merged,
		Micros:        micros,
	}
	if wasXPath {
		if x, err := xpath.ToXPath(e.out); err == nil {
			resp.OutputXPath = x
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// minimizeOr serves a multi-disjunct /minimize request: per-disjunct
// minimization through the cache hierarchy, absorption pruning, and the
// assembled union cached under its disjunct-sorted canon (see
// Service.MinimizeDisjunction). The response reuses the conjunctive
// shape plus the disjunct accounting fields.
func (h *handler) minimizeOr(w http.ResponseWriter, ctx context.Context, d *pattern.Disjunction, wasXPath bool) {
	start := time.Now()
	e, rep, err := h.svc.minimizeDisjunctionEntry(ctx, d)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	resp := minimizeResponse{
		Output:        e.render(),
		InputSize:     rep.InputSize,
		OutputSize:    rep.OutputSize,
		CDMRemoved:    rep.CDMRemoved,
		ACIMRemoved:   rep.ACIMRemoved,
		Unsatisfiable: rep.Unsatisfiable,
		CacheHit:      rep.CacheHit,
		Micros:        time.Since(start).Microseconds(),
		Disjuncts:     rep.Disjuncts,
		Absorbed:      rep.Absorbed,
		Unsat:         rep.Unsat,
	}
	if wasXPath {
		if x, err := toXPathUnion(e.out); err == nil {
			resp.OutputXPath = x
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// toXPathUnion renders a disjunction as an XPath union expression.
func toXPathUnion(d *pattern.Disjunction) (string, error) {
	var b strings.Builder
	for i, p := range d.Disjuncts {
		x, err := xpath.ToXPath(p)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(x)
	}
	return b.String(), nil
}

// respPool holds the buffers hit responses are assembled in.
var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// renderHitPrefix pre-renders the single-query cache-hit response for an
// entry, compact, through `"micros":` — the hot path appends only the
// digits and the closing brace. Field order matches minimizeResponse.
func renderHitPrefix(e *entry) []byte {
	out, err := json.Marshal(e.text)
	if err != nil {
		return nil
	}
	b := make([]byte, 0, len(out)+112)
	b = append(b, `{"output":`...)
	b = append(b, out...)
	b = append(b, `,"inputSize":`...)
	b = strconv.AppendInt(b, int64(e.rep.InputSize), 10)
	b = append(b, `,"outputSize":`...)
	b = strconv.AppendInt(b, int64(e.rep.OutputSize), 10)
	b = append(b, `,"cdmRemoved":`...)
	b = strconv.AppendInt(b, int64(e.rep.CDMRemoved), 10)
	b = append(b, `,"acimRemoved":`...)
	b = strconv.AppendInt(b, int64(e.rep.ACIMRemoved), 10)
	if e.rep.Unsatisfiable {
		b = append(b, `,"unsatisfiable":true`...)
	}
	b = append(b, `,"cacheHit":true,"micros":`...)
	return b
}

// writeHitResponse serves a pre-rendered hit from pooled scratch.
func writeHitResponse(w http.ResponseWriter, e *entry, micros int64) {
	bp := respPool.Get().(*[]byte)
	buf := append((*bp)[:0], e.hitJSON...)
	buf = strconv.AppendInt(buf, micros, 10)
	buf = append(buf, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	*bp = buf
	respPool.Put(bp)
}

func (h *handler) match(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON body")
		return
	}
	buf, release, err := readBody(w, r, h.opts.MaxBody)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	var req matchRequest
	err = json.Unmarshal(buf, &req)
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "limit must be non-negative")
		return
	}
	idx := h.index
	if req.Document != "" {
		f, err := data.ParseXML(strings.NewReader(req.Document))
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing document: "+err.Error())
			return
		}
		if f.Size() > h.opts.MaxDocNodes {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("document of %d nodes exceeds limit %d", f.Size(), h.opts.MaxDocNodes))
			return
		}
		idx = match.NewForestIndex(f)
	}
	if idx == nil {
		writeError(w, http.StatusBadRequest, "no document loaded (start tpqd with -xml, or inline one as \"document\")")
		return
	}
	d, _, err := h.parseOne(&minimizeRequest{Query: req.Query, XPath: req.XPath})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	start := time.Now()
	// Minimize first (through the cache tiers), then evaluate the minimal
	// form: the union of its disjuncts' answer rows (a conjunctive query is
	// one disjunct). The shared entry is only read: compiling does not
	// mutate a pattern.
	e, rep, err := h.svc.minimizeDisjunctionEntry(ctx, d)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	qs := make([]*stream.Query, 0, len(e.out.Disjuncts))
	for _, p := range e.out.Disjuncts {
		q, err := stream.Compile(p, idx, stream.Options{})
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		qs = append(qs, q)
	}
	outText, outSize, cacheHit := e.render(), rep.OutputSize, rep.CacheHit
	if req.Stream {
		h.streamMatch(w, ctx, stream.UnionAnswers(ctx, qs), req.Limit, outText, cacheHit, start)
		return
	}
	// A reply without answers needs only their number: the popcount of
	// the union's answer row, capped at the limit.
	count := stream.UnionCount(ctx, qs)
	truncated := req.Limit > 0 && count > req.Limit
	if truncated {
		count = req.Limit
	}
	elapsed := time.Since(start)
	h.svc.ObserveMatch(elapsed, int64(count), false, truncated)
	if err := ctx.Err(); err != nil && !truncated {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, matchResponse{
		Count:      count,
		Truncated:  truncated,
		Output:     outText,
		OutputSize: outSize,
		CacheHit:   cacheHit,
		Micros:     elapsed.Microseconds(),
	})
}

// streamMatch writes the NDJSON mode of /match: one answer line per
// match in document order, flushed incrementally, then a summary line.
// The status is committed before evaluation starts, so a
// mid-stream cancellation surfaces as an "error" field on the summary
// line instead of a status code. The answer source is an iterator so
// conjunctive queries and disjunctive unions stream identically.
func (h *handler) streamMatch(w http.ResponseWriter, ctx context.Context, answers iter.Seq[*data.Node], limit int, outText string, cacheHit bool, start time.Time) {
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	count, truncated := 0, false
	lastFlush := time.Now()
	for v := range answers {
		if limit > 0 && count >= limit {
			truncated = true
			break
		}
		enc.Encode(matchAnswer{ID: v.ID, Types: v.Types})
		count++
		if count%streamFlushEvery == 0 || time.Since(lastFlush) > streamFlushInterval {
			flush()
			lastFlush = time.Now()
		}
	}
	d := time.Since(start)
	sum := matchSummary{
		Done:      true,
		Count:     count,
		Truncated: truncated,
		Output:    outText,
		CacheHit:  cacheHit,
		Micros:    d.Microseconds(),
	}
	if err := ctx.Err(); err != nil && !truncated {
		sum.Error = err.Error()
	}
	enc.Encode(sum)
	flush()
	h.svc.ObserveMatch(d, int64(count), true, truncated)
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, h.svc.Stats())
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if h.svc.Closing() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "shutting down")
		return
	}
	fmt.Fprintln(w, "ok")
}

func toResponse(out *pattern.Pattern, rep Report, micros int64) minimizeResponse {
	return minimizeResponse{
		Output:        out.String(),
		InputSize:     rep.InputSize,
		OutputSize:    rep.OutputSize,
		CDMRemoved:    rep.CDMRemoved,
		ACIMRemoved:   rep.ACIMRemoved,
		Unsatisfiable: rep.Unsatisfiable,
		CacheHit:      rep.CacheHit,
		Merged:        rep.Merged,
		Micros:        micros,
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeDecodeError rejects an unreadable request body: 413 when it
// exceeds HandlerOptions.MaxBody, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, "decoding request: "+err.Error())
}

// writeServiceError maps service/context errors onto status codes.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}
