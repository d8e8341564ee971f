// Package service is the serving layer: a long-lived, concurrency-safe
// minimization service that fronts the CDM+ACIM pipeline (package engine)
// with a canonical-form-keyed LRU cache and singleflight deduplication.
//
// The paper frames minimization as a pre-processing step whose cost is
// amortized across evaluation; that amortization only pays off at scale
// when a long-lived process remembers its work. Tree-pattern workloads are
// dominated by repeated, structurally identical queries, so the service
// keys results on the pattern's canonical form (pattern.Canonical — equal
// exactly for isomorphic queries) combined with the fingerprint of the
// closed constraint set (ics.Set.Fingerprint): Theorem 4.1's uniqueness of
// the minimal query up to isomorphism is what makes this key sound. A hot
// query therefore costs one hash lookup and a clone rather than an O(n⁶)
// worst-case minimization, and concurrent identical requests share a
// single pipeline run.
//
// The constraint closure is computed once at construction and shared
// read-only by every request — per-request Closure() calls are the single
// largest avoidable cost of the unserved API. Observability is expvar
// style: monotonic counters (hits, misses, inflight merges, evictions,
// per-phase CDM/ACIM removals) and a latency histogram, exported as a
// Snapshot for /stats or expvar publication. Close drains inflight
// requests for graceful shutdown.
package service

import (
	"context"
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tpq/internal/chase"
	"tpq/internal/engine"
	"tpq/internal/ics"
	"tpq/internal/lru"
	"tpq/internal/pattern"
	"tpq/internal/store"
	"tpq/internal/trace"
)

// DefaultCacheSize is the cache capacity used when Options.CacheSize is 0.
const DefaultCacheSize = 1024

// ErrClosed is returned by requests that arrive after Close has begun.
var ErrClosed = errors.New("service: shutting down")

// errEmptyPattern rejects nil or rootless queries before they reach the
// pipeline.
var errEmptyPattern = errors.New("service: empty pattern")

// Options configure a Service.
type Options struct {
	// Constraints are the integrity constraints every query is minimized
	// under; nil means none. The closure is computed once here, never per
	// request.
	Constraints *ics.Set
	// Workers sizes the service's worker pool, which minimizes the
	// queries of a batch and the disjuncts of a union concurrently; <= 0
	// means GOMAXPROCS.
	Workers int
	// CacheSize is the LRU capacity in cached queries: 0 picks
	// DefaultCacheSize, negative disables caching entirely — every request
	// runs the pipeline with no deduplication, matching the unserved API.
	CacheSize int
	// Algo selects the per-query pipeline; empty means engine.Auto
	// (CDM pre-filter, then ACIM).
	Algo engine.Algo
	// SlowLogThreshold enables the slow-query log: every pipeline run
	// (cache hits never qualify — they are a hash lookup) whose compute
	// time reaches the threshold is recorded as one JSON line on SlowLog.
	// Zero disables. See SlowQuery for the line's schema.
	SlowLogThreshold time.Duration
	// SlowLog receives the slow-query lines; nil with a nonzero threshold
	// means os.Stderr. Writes are serialized by the service.
	SlowLog io.Writer
	// Store is the optional persistent tier beneath the LRU: computed
	// entries are written behind asynchronously, LRU misses consult it
	// before paying for the pipeline, and WarmStart pre-populates the LRU
	// from it at construction. The caller owns the store's lifecycle
	// (open before New, close after Close). Ignored when caching is
	// disabled (CacheSize < 0) — the store is a cache tier, not a log.
	Store *store.Store
	// WarmStart is how many of the most recently written store entries to
	// preload into the LRU at construction: negative means up to the
	// cache capacity, zero disables warm-start. Only meaningful with
	// Store set.
	WarmStart int
}

// Report describes how one request was served.
type Report struct {
	// InputSize and OutputSize are node counts before and after.
	InputSize, OutputSize int
	// CDMRemoved and ACIMRemoved split the removals between the phases.
	CDMRemoved, ACIMRemoved int
	// Unsatisfiable is set when the query can never return an answer under
	// the constraints.
	Unsatisfiable bool
	// CacheHit is set when the result came from the cache.
	CacheHit bool
	// Merged is set when the request joined another request's inflight
	// minimization instead of running its own.
	Merged bool
}

// entry is a cached minimization: the canonical form of the input (the
// identity the persistent tier verifies against), the minimized
// pattern (cloned by the public API, never handed out for mutation) and
// its report with the per-request flags unset. Cached entries are
// finalized with the rendered output text and a pre-rendered hit
// response, so repeat hits serve bytes instead of re-encoding JSON.
type entry struct {
	canon string
	out   *pattern.Pattern
	rep   Report

	// text is out.String(), rendered once at finalize time.
	text string
	// hitJSON is the single-query cache-hit response, pre-rendered
	// through `"micros":` — the HTTP fast path appends the digits and
	// the closing brace. Nil on never-cached entries.
	hitJSON []byte
}

// Service is a long-lived minimization server. It is safe for concurrent
// use.
type Service struct {
	eng     *engine.Minimizer
	closed  *ics.Set
	fp      string
	workers int
	start   time.Time
	stats   Stats

	mu       sync.Mutex // guards closing
	closing  bool
	inflight sync.WaitGroup

	// Sharded cache tier (nil when caching is disabled): each request
	// hashes its cache key to one shard and takes only that shard's
	// lock and flight map — the hot path contends on 1/len(shards) of
	// the traffic instead of one global mutex.
	shards    []*cacheShard
	shardMask uint64

	// orcache is the disjunctive result cache (nil when caching is
	// disabled), keyed on disjunction canon + constraint fingerprint and
	// guarded by orMu. Per-disjunct results live in the sharded tier
	// above; this one only saves re-assembly (absorption containment
	// tests) of repeat unions. One lock: disjunctive traffic does not
	// justify sharding.
	orMu    sync.Mutex
	orcache *lru.Cache[*orEntry]

	slowThreshold time.Duration
	slowMu        sync.Mutex // serializes slow-query log lines
	slowLog       io.Writer

	// Persistent tier (nil without Options.Store): entries computed here
	// are written behind through storeQ, which one goroutine drains —
	// store.Put holds the store's lock across append and flush, so more
	// drains would only queue on it. LRU misses read the store before
	// computing. fpRaw is the decoded constraint fingerprint, the fixed
	// key prefix of every entry this service owns.
	store     *store.Store
	fpRaw     []byte
	storeQ    chan storeWrite
	storeDone chan struct{} // closed when the drain goroutine exits
	storeOnce sync.Once     // closes storeQ once
	// writeTick numbers write-behind puts in request-completion order;
	// persisted with each entry so warm-start can rank recency after
	// Compact, which rewrites the store in key order and so loses its
	// append sequence. Seeded from the store's max persisted tick so it
	// stays monotonic across restarts.
	writeTick atomic.Uint64

	// computeGate, when set (tests only), runs on the leader's goroutine
	// after it wins the flight and before it computes — the hook the
	// inflight-merge tests use to hold a minimization open deterministically.
	computeGate func()
}

// New returns a Service with the given options. The constraint closure is
// computed here, once.
func New(opts Options) *Service {
	eng := engine.New(engine.Options{Algo: opts.Algo, Constraints: opts.Constraints})
	s := &Service{
		eng:     eng,
		closed:  eng.Closed(),
		workers: opts.Workers,
		start:   time.Now(),
	}
	s.stats.initHistograms()
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.fp = s.closed.Fingerprint()
	if opts.SlowLogThreshold > 0 {
		s.slowThreshold = opts.SlowLogThreshold
		s.slowLog = opts.SlowLog
		if s.slowLog == nil {
			s.slowLog = os.Stderr
		}
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	if cacheSize > 0 {
		s.shards = newShards(cacheSize)
		s.shardMask = uint64(len(s.shards) - 1)
		s.orcache = lru.New[*orEntry](DefaultOrCacheSize)
	}
	if opts.Store != nil && len(s.shards) > 0 {
		s.store = opts.Store
		s.fpRaw = decodeFingerprint(s.fp)
		s.loadStore(opts.WarmStart)
		s.storeQ = make(chan storeWrite, storeQueueDepth)
		s.storeDone = make(chan struct{})
		go s.drainStore()
	}
	return s
}

// Constraints returns the closed constraint set the service minimizes
// under. Callers must not modify it.
func (s *Service) Constraints() *ics.Set { return s.closed }

// Fingerprint returns the digest of the closed constraint set — the
// constraint half of every cache key.
func (s *Service) Fingerprint() string { return s.fp }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Snapshot {
	snap := s.stats.snapshot()
	snap.CacheLen, snap.CacheCap = s.cacheLenCap()
	snap.CacheShards = len(s.shards)
	if s.orcache != nil {
		s.orMu.Lock()
		snap.OrCacheLen = s.orcache.Len()
		s.orMu.Unlock()
	}
	reg := chase.DefaultRegistry.Stats()
	snap.PlanCacheLen, snap.PlanCacheCap = reg.Len, reg.Cap
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &StoreSnapshot{
			Entries:         st.Entries,
			LogRecords:      st.LogRecords,
			LogBytes:        st.LogBytes,
			SnapshotRecords: st.SnapshotRecords,
			ReplayedRecords: st.ReplayedRecords,
			TornBytes:       st.TornBytes,
			Compactions:     st.Compactions,
		}
	}
	snap.Constraints = s.closed.Len()
	snap.ConstraintFingerprint = s.fp
	snap.Workers = s.workers
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	return snap
}

// ObserveParse feeds the Parse phase's duration histogram. Parsing
// happens in front of the service (the HTTP layer, shells), so the
// front-ends report it here to complete the per-phase picture.
func (s *Service) ObserveParse(d time.Duration) {
	s.stats.phase[trace.Parse].Observe(d)
}

// ObserveMatch records one /match evaluation: its duration (the Match
// phase histogram), the number of answers delivered, whether it was
// served in streaming mode, and whether a result limit truncated it.
// Evaluation happens in the HTTP layer — the service only keeps the
// books, as with ObserveParse.
func (s *Service) ObserveMatch(d time.Duration, answers int64, streamed, limited bool) {
	s.stats.matchRequests.Add(1)
	s.stats.matchAnswers.Add(answers)
	if streamed {
		s.stats.matchStreams.Add(1)
	}
	if limited {
		s.stats.matchLimited.Add(1)
	}
	s.stats.phase[trace.Match].Observe(d)
}

// Closing reports whether Close has begun; /healthz turns 503 on it.
func (s *Service) Closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// Close begins graceful shutdown: new requests fail with ErrClosed and
// Close blocks until inflight requests — and the write-behind queue, so
// no computed entry is lost on a clean stop — drain or ctx expires. The
// queue is closed only after the last inflight request has left, so an
// enqueue can never race a closed channel.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		if s.storeQ != nil {
			s.storeOnce.Do(func() { close(s.storeQ) })
			<-s.storeDone
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cacheLenCap sums residency and capacity across the shards.
func (s *Service) cacheLenCap() (length, capacity int) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		length += sh.lru.Len()
		capacity += sh.lru.Cap()
		sh.mu.Unlock()
	}
	return length, capacity
}

// shardFor picks the shard owning a key: a cache key, still in its
// scratch buffer on the request path, or an exact request text.
func shardFor[K string | []byte](s *Service, key K) *cacheShard {
	return s.shards[shardHash(key)&s.shardMask]
}

// Minimize returns the minimal query equivalent to p under the service's
// constraints, served from the cache when an isomorphic query has been
// minimized before. The returned pattern is always a private copy. The
// context cancels waiting and, on the computing path, is honored between
// the CDM and ACIM phases; errors are only ever context errors, ErrClosed,
// or a rejection of an empty pattern.
func (s *Service) Minimize(ctx context.Context, p *pattern.Pattern) (*pattern.Pattern, Report, error) {
	e, rep, err := s.minimizeEntry(ctx, p)
	if err != nil {
		return nil, Report{}, err
	}
	return s.private(e), rep, nil
}

// private returns e's output for a caller that may mutate it. A cached
// entry is (or may be) shared, so the caller gets a copy; with caching
// disabled the entry is request-local and the copy would be waste.
func (s *Service) private(e *entry) *pattern.Pattern {
	if len(s.shards) > 0 {
		return e.out.Clone()
	}
	return e.out
}

// minimizeEntry is the package-internal form of Minimize: it returns the
// shared cache entry itself, saving the clone for callers (the HTTP
// layer) that only read the result. The caller must not mutate e.out.
func (s *Service) minimizeEntry(ctx context.Context, p *pattern.Pattern) (*entry, Report, error) {
	if p == nil || p.Root == nil {
		return nil, Report{}, errEmptyPattern
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.stats.errors.Add(1)
		return nil, Report{}, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)
	s.stats.requests.Add(1)
	start := time.Now()
	e, rep, err := s.minimize(ctx, p)
	if err != nil {
		s.stats.errors.Add(1)
		return nil, Report{}, err
	}
	s.stats.lat.Observe(time.Since(start))
	return e, rep, nil
}

// hitText is the exact-text fast path: if src (the raw query text of a
// request) was seen before and its entry is still cached, serve it with
// full hit bookkeeping — no parse, no canonicalization, no allocation.
// Misses (unknown text, evicted entry, caching disabled, shutdown) are
// reported as !ok and cost one map probe; the caller falls back to the
// parse path, which re-registers the mapping.
func (s *Service) hitText(src string) (*entry, Report, bool) {
	if len(s.shards) == 0 || src == "" {
		return nil, Report{}, false
	}
	tsh := shardFor(s, src)
	tsh.mu.Lock()
	key, ok := tsh.textIdx.Get(src)
	tsh.mu.Unlock()
	if !ok {
		return nil, Report{}, false
	}
	s.mu.Lock()
	if s.closing {
		// Let the slow path produce ErrClosed with its usual accounting.
		s.mu.Unlock()
		return nil, Report{}, false
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	start := time.Now()
	e, ok := shardFor(s, key).get(key)
	if !ok {
		return nil, Report{}, false
	}
	s.stats.requests.Add(1)
	s.stats.hits.Add(1)
	rep := e.rep
	rep.CacheHit = true
	s.stats.lat.Observe(time.Since(start))
	return e, rep, true
}

// registerText records src → cache key after the slow path resolved it,
// so the next byte-identical request takes hitText. The shard's text
// index evicts its least recently used text past capacity; slow-path
// only, so the allocation for the key string is off the hot path.
func (s *Service) registerText(src string, e *entry) {
	if len(s.shards) == 0 || src == "" || e == nil || e.canon == "" {
		return
	}
	key := e.canon + "\x00" + s.fp
	tsh := shardFor(s, src)
	tsh.mu.Lock()
	tsh.textIdx.Add(src, key)
	tsh.mu.Unlock()
}

// keyScratch is the pooled per-request buffer the cache key is built in:
// a hit never materializes a single string or byte slice on the heap.
type keyScratch struct{ buf []byte }

var keyPool = sync.Pool{New: func() any { return &keyScratch{buf: make([]byte, 0, 256)} }}

func (s *Service) minimize(ctx context.Context, p *pattern.Pattern) (*entry, Report, error) {
	if len(s.shards) == 0 {
		s.stats.misses.Add(1)
		e, err := s.compute(ctx, p)
		if err != nil {
			return nil, Report{}, err
		}
		return e, e.rep, nil
	}
	// Build canon + "\x00" + constraint fingerprint in pooled scratch and
	// try the owning shard: the hot path is one hash, one shard lock, one
	// map probe — no allocation.
	ks := keyPool.Get().(*keyScratch)
	buf := p.AppendCanonical(ks.buf[:0])
	canonLen := len(buf)
	buf = append(buf, 0)
	buf = append(buf, s.fp...)
	ks.buf = buf
	sh := shardFor(s, buf)
	if e, ok := sh.getBytes(buf); ok {
		keyPool.Put(ks)
		s.stats.hits.Add(1)
		rep := e.rep
		rep.CacheHit = true
		return e, rep, nil
	}
	// Miss: materialize the strings the slow path keeps (flight map key,
	// entry identity) and release the scratch.
	key := string(buf)
	canon := key[:canonLen]
	keyPool.Put(ks)
	for {
		if e, ok := sh.get(key); ok {
			s.stats.hits.Add(1)
			rep := e.rep
			rep.CacheHit = true
			return e, rep, nil
		}
		c, leader := sh.flight.join(key)
		if !leader {
			// Another request is minimizing this exact query right now:
			// merge with it instead of duplicating the work.
			s.stats.merges.Add(1)
			select {
			case <-c.done:
				if c.err != nil {
					// The leader aborted (its context died). If ours is
					// still live, loop: we will find the cache or lead.
					if err := ctx.Err(); err != nil {
						return nil, Report{}, err
					}
					continue
				}
				rep := c.val.rep
				rep.Merged = true
				return c.val, rep, nil
			case <-ctx.Done():
				return nil, Report{}, ctx.Err()
			}
		}
		// Leader. A racing leader may have filled the cache between our
		// lookup and the join; re-check before paying for the pipeline.
		if e, ok := sh.get(key); ok {
			sh.flight.finish(key, c, e)
			s.stats.hits.Add(1)
			rep := e.rep
			rep.CacheHit = true
			return e, rep, nil
		}
		// Second tier: the persistent store. A hit is promoted into the
		// LRU and served as a cache hit — no pipeline run.
		if e, ok := s.storeGet(canon); ok {
			s.cacheAdd(sh, key, e)
			sh.flight.finish(key, c, e)
			rep := e.rep
			rep.CacheHit = true
			return e, rep, nil
		}
		s.stats.misses.Add(1)
		if s.computeGate != nil {
			s.computeGate()
		}
		e, err := s.compute(ctx, p)
		if err != nil {
			sh.flight.fail(key, c, err)
			return nil, Report{}, err
		}
		e.canon = canon
		e.finalize()
		s.cacheAdd(sh, key, e)
		s.storeEnqueue(e)
		sh.flight.finish(key, c, e)
		return e, e.rep, nil
	}
}

// cacheAdd admits an entry under its shard's lock.
func (s *Service) cacheAdd(sh *cacheShard, key string, e *entry) {
	sh.mu.Lock()
	evicted := sh.lru.Add(key, e)
	sh.mu.Unlock()
	if evicted > 0 {
		s.stats.evictions.Add(int64(evicted))
	}
}

// finalize renders the derived serving state of an entry about to be
// shared through the cache: the output text (rendered once instead of
// per response) and the pre-rendered cache-hit response bytes.
func (e *entry) finalize() {
	e.text = e.out.String()
	e.hitJSON = renderHitPrefix(e)
}

// compute runs the actual pipeline plus the unsatisfiability verdict,
// updates the work counters and per-phase histograms, and feeds the
// slow-query log when the run crossed the threshold.
func (s *Service) compute(ctx context.Context, p *pattern.Pattern) (*entry, error) {
	tr := trace.New()
	start := time.Now()
	r, err := s.eng.MinimizeContextTraced(ctx, p, tr)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s.stats.observePhases(tr)
	s.stats.minimizations.Add(1)
	s.stats.cdmRemoved.Add(int64(r.CDMRemoved))
	s.stats.acimRemoved.Add(int64(r.ACIMRemoved))
	s.stats.tablesBuilt.Add(int64(r.TablesBuilt))
	s.stats.tablesDerived.Add(int64(r.TablesDerived))
	s.stats.plansCompiled.Add(tr.Count(trace.PlansCompiled))
	s.stats.planHits.Add(tr.Count(trace.PlanHits))
	if r.Unsatisfiable {
		s.stats.unsat.Add(1)
	}
	if s.slowLog != nil && elapsed >= s.slowThreshold {
		s.logSlow(p, r, tr, elapsed)
	}
	return &entry{
		out: r.Output,
		rep: Report{
			InputSize:     p.Size(),
			OutputSize:    r.Output.Size(),
			CDMRemoved:    r.CDMRemoved,
			ACIMRemoved:   r.ACIMRemoved,
			Unsatisfiable: r.Unsatisfiable,
		},
	}, nil
}

// MinimizeBatch minimizes every query concurrently over the service's
// worker pool, with each query going through the cache and singleflight
// individually — duplicates inside one batch share a single minimization.
// Results are in input order. On error (cancellation or shutdown) the
// whole batch fails.
func (s *Service) MinimizeBatch(ctx context.Context, queries []*pattern.Pattern) ([]*pattern.Pattern, []Report, error) {
	s.stats.batches.Add(1)
	es, reps, err := s.minimizeEntries(ctx, queries)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]*pattern.Pattern, len(es))
	for i, e := range es {
		outs[i] = s.private(e)
	}
	return outs, reps, nil
}

// minimizeEntries is the service's worker pool: it runs minimizeEntry on
// every query, at most s.workers at a time (the caller's goroutine is one
// of them), and returns the entries and reports in input order. Both
// batches and the disjuncts of a union fan out through it. On failure it
// returns the error of the first failed query in input order.
func (s *Service) minimizeEntries(ctx context.Context, queries []*pattern.Pattern) ([]*entry, []Report, error) {
	es := make([]*entry, len(queries))
	reps := make([]Report, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(queries) {
				return
			}
			es[i], reps[i], errs[i] = s.minimizeEntry(ctx, queries[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(s.workers, len(queries)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return es, reps, nil
}
