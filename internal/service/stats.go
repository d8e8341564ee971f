package service

import (
	"sync/atomic"
	"time"

	"tpq/internal/hdr"
	"tpq/internal/trace"
)

// Stats is the service's observability surface: expvar-style monotonic
// counters plus a latency histogram, all updated with atomics so the hot
// path never takes the cache lock just to count. Snapshot renders a
// consistent-enough copy for /stats and expvar publication.
type Stats struct {
	requests       atomic.Int64 // Minimize calls accepted (incl. batch members)
	hits           atomic.Int64 // served straight from the cache
	misses         atomic.Int64 // not in cache at lookup time
	merges         atomic.Int64 // followers that joined an inflight minimization
	minimizations  atomic.Int64 // actual engine pipeline runs
	evictions      atomic.Int64 // cache entries displaced by capacity
	unsat          atomic.Int64 // minimized queries found unsatisfiable
	cdmRemoved     atomic.Int64 // nodes removed by the CDM pre-filter
	acimRemoved    atomic.Int64 // nodes removed by the ACIM phase
	tablesBuilt    atomic.Int64 // full images-table constructions in the CIM phase
	tablesDerived  atomic.Int64 // per-leaf tables derived from a run's master state
	plansCompiled  atomic.Int64 // chase plans compiled by pipeline runs (registry misses)
	planHits       atomic.Int64 // chase-plan registry hits by pipeline runs
	batches        atomic.Int64 // MinimizeBatch calls
	errors         atomic.Int64 // requests failed (cancellation, shutdown)
	slowQueries    atomic.Int64 // slow-query lines actually written
	slowLogDropped atomic.Int64 // slow-query lines lost to a failing writer

	storeHits    atomic.Int64 // LRU misses answered by the persistent tier
	storeMisses  atomic.Int64 // LRU misses the persistent tier could not answer
	storePuts    atomic.Int64 // write-behind puts applied to the store
	storeErrors  atomic.Int64 // store failures (put errors, undecodable entries)
	storeDropped atomic.Int64 // write-behind puts dropped on a full queue
	warmStarted  atomic.Int64 // entries preloaded into the LRU at construction

	orRequests  atomic.Int64 // disjunctive (multi-disjunct) minimize requests
	orDisjuncts atomic.Int64 // disjuncts across all disjunctive requests
	orAbsorbed  atomic.Int64 // disjuncts dropped by absorption (duplicates included)
	orUnsat     atomic.Int64 // disjuncts dropped as unsatisfiable
	orCacheHits atomic.Int64 // disjunctive requests served from the or-cache

	matchRequests atomic.Int64 // /match evaluations accepted
	matchStreams  atomic.Int64 // evaluations served in streaming (NDJSON) mode
	matchAnswers  atomic.Int64 // answers delivered across all evaluations
	matchLimited  atomic.Int64 // evaluations truncated by a result limit

	inflight atomic.Int64 // requests currently inside Minimize (gauge)

	// lat is the request latency histogram; phase holds one duration
	// histogram per pipeline phase (parse/chase/cdm/acim/cim/compact),
	// fed by the per-request traces of the compute path (cache hits run
	// no phases) plus the serving layer's parse and match observations.
	// All are built by initHistograms on hdr.DefaultLayout: 64 log-linear
	// bounds from 100ns to 1s, fine enough that µs-scale cached hits
	// spread across real buckets.
	lat   *hdr.Histogram
	phase [trace.NumPhases]*hdr.Histogram
}

// initHistograms builds the request and per-phase histograms.
func (s *Stats) initHistograms() {
	s.lat = hdr.New(hdr.DefaultLayout)
	for i := range s.phase {
		s.phase[i] = hdr.New(hdr.DefaultLayout)
	}
}

// observePhases folds one request's trace into the per-phase histograms.
// A phase that did not run (zero duration) is not observed, so histogram
// counts mean "requests that exercised the phase".
func (s *Stats) observePhases(tr *trace.Trace) {
	if tr == nil {
		return
	}
	for _, p := range trace.Phases() {
		if d := tr.Dur(p); d > 0 {
			s.phase[p].Observe(d)
		}
	}
}

// micros converts a histogram duration to the fractional microseconds
// of /stats.
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// LatencyBucket is one histogram bar: the count of requests that took at
// most LEMicros microseconds (and more than the previous bound).
// Fractional bounds are the sub-microsecond buckets.
type LatencyBucket struct {
	LEMicros float64 `json:"leMicros"` // -1 on the +Inf bucket
	Count    int64   `json:"count"`
}

// Snapshot is a point-in-time copy of the counters, shaped for JSON.
//
// It is also the one declaration of every counter and gauge the service
// exposes. A field's json tag is its /stats (and expvar) key; a metric
// tag puts it on /metrics as that series, with the help tag as the
// family's HELP text (see WritePrometheus). A family whose name ends in
// _total is a counter, any other a gauge. A metric tag that is only a
// label set, such as {phase="acim"}, adds a series to the family of the
// field before it.
type Snapshot struct {
	Requests       int64 `json:"requests" metric:"tpq_requests_total" help:"Minimize requests accepted (batch members included)."`
	Hits           int64 `json:"hits" metric:"tpq_cache_hits_total" help:"Requests served straight from the cache."`
	Misses         int64 `json:"misses" metric:"tpq_cache_misses_total" help:"Requests not in the cache at lookup time."`
	InflightMerges int64 `json:"inflightMerges" metric:"tpq_inflight_merges_total" help:"Requests that joined another request's inflight minimization."`
	Minimizations  int64 `json:"minimizations" metric:"tpq_minimizations_total" help:"Actual engine pipeline runs."`
	Evictions      int64 `json:"evictions" metric:"tpq_cache_evictions_total" help:"Cache entries displaced by capacity."`
	Unsatisfiable  int64 `json:"unsatisfiable" metric:"tpq_unsatisfiable_total" help:"Minimized queries found unsatisfiable under the constraints."`
	CDMRemoved     int64 `json:"cdmRemoved" metric:"tpq_nodes_removed_total{phase=\"cdm\"}" help:"Nodes eliminated, split by pipeline phase."`
	ACIMRemoved    int64 `json:"acimRemoved" metric:"{phase=\"acim\"}"`
	TablesBuilt    int64 `json:"tablesBuilt" metric:"tpq_tables_total{kind=\"built\"}" help:"Images tables, split into full constructions and master-derived tables."`
	TablesDerived  int64 `json:"tablesDerived" metric:"{kind=\"derived\"}"`
	PlansCompiled  int64 `json:"plansCompiled" metric:"tpq_plans_compiled_total" help:"Chase plans compiled by this service's pipeline runs (registry misses)."`
	PlanHits       int64 `json:"planHits" metric:"tpq_plan_hits_total" help:"Chase-plan registry hits by this service's pipeline runs."`
	Batches        int64 `json:"batches" metric:"tpq_batches_total" help:"MinimizeBatch calls."`
	Errors         int64 `json:"errors" metric:"tpq_errors_total" help:"Requests failed (cancellation, shutdown, rejection)."`
	SlowQueries    int64 `json:"slowQueries" metric:"tpq_slow_queries_total" help:"Pipeline runs recorded by the slow-query log."`
	SlowLogDropped int64 `json:"slowLogDropped" metric:"tpq_slow_log_dropped_total" help:"Slow-query log lines lost to a failing writer."`
	Inflight       int64 `json:"inflight" metric:"tpq_inflight_requests" help:"Requests currently inside Minimize."`

	StoreHits    int64 `json:"storeHits" metric:"tpq_store_hits_total" help:"LRU misses answered by the persistent tier."`
	StoreMisses  int64 `json:"storeMisses" metric:"tpq_store_misses_total" help:"LRU misses the persistent tier could not answer."`
	StorePuts    int64 `json:"storePuts" metric:"tpq_store_puts_total" help:"Write-behind puts applied to the persistent tier."`
	StoreErrors  int64 `json:"storeErrors" metric:"tpq_store_errors_total" help:"Persistent-tier failures (put errors, undecodable entries)."`
	StoreDropped int64 `json:"storeDropped" metric:"tpq_store_dropped_total" help:"Write-behind puts dropped on a full queue."`
	WarmStarted  int64 `json:"warmStarted" metric:"tpq_warm_start_entries_total" help:"Entries preloaded into the LRU from the store at startup."`

	// Store mirrors the persistent tier's own state; nil when the
	// service runs without one (its series then read zero on /metrics).
	Store *StoreSnapshot `json:"store,omitempty"`

	MatchRequests int64 `json:"matchRequests" metric:"tpq_match_requests_total" help:"Match evaluations accepted."`
	MatchStreams  int64 `json:"matchStreams" metric:"tpq_match_streams_total" help:"Match evaluations served in streaming (NDJSON) mode."`
	MatchAnswers  int64 `json:"matchAnswers" metric:"tpq_match_answers_total" help:"Answers delivered across all match evaluations."`
	MatchLimited  int64 `json:"matchLimited" metric:"tpq_match_limited_total" help:"Match evaluations truncated by a result limit."`

	// Disjunctive serving: requests with two or more disjuncts
	// (singletons count as conjunctive requests above).
	OrRequests  int64 `json:"orRequests" metric:"tpq_or_requests_total" help:"Disjunctive (multi-disjunct) minimize requests."`
	OrDisjuncts int64 `json:"orDisjuncts" metric:"tpq_or_disjuncts_total" help:"Disjuncts across all disjunctive requests."`
	OrAbsorbed  int64 `json:"orAbsorbed" metric:"tpq_or_absorbed_total" help:"Disjuncts dropped by absorption pruning (duplicates included)."`
	OrUnsat     int64 `json:"orUnsat" metric:"tpq_or_unsat_total" help:"Disjuncts dropped as unsatisfiable under the constraints."`
	OrCacheHits int64 `json:"orCacheHits" metric:"tpq_or_cache_hits_total" help:"Disjunctive requests served from the or-cache."`
	OrCacheLen  int   `json:"orCacheLen" metric:"tpq_or_cache_entries" help:"Cached disjunctive results resident."`

	CacheLen int `json:"cacheLen" metric:"tpq_cache_entries" help:"Cached minimizations resident."`
	CacheCap int `json:"cacheCap" metric:"tpq_cache_capacity" help:"Cache capacity (0 when caching is disabled)."`
	// CacheShards is the number of lock domains the LRU is split over
	// (0 when caching is disabled).
	CacheShards int `json:"cacheShards" metric:"tpq_cache_shards" help:"Lock domains the LRU is split over."`

	// PlanCacheLen and PlanCacheCap mirror the process-wide chase-plan
	// registry (compiled augmentation plans keyed by constraint-set
	// fingerprint; see internal/chase).
	PlanCacheLen int `json:"planCacheLen" metric:"tpq_plan_cache_entries" help:"Compiled chase plans resident in the process-wide registry."`
	PlanCacheCap int `json:"planCacheCap" metric:"tpq_plan_cache_capacity" help:"Chase-plan registry capacity."`

	Constraints           int     `json:"constraints" metric:"tpq_constraints" help:"Size of the closed constraint set."`
	ConstraintFingerprint string  `json:"constraintFingerprint"`
	Workers               int     `json:"workers" metric:"tpq_workers" help:"Worker-pool size of batch and union minimization."`
	UptimeSeconds         float64 `json:"uptimeSeconds" metric:"tpq_uptime_seconds" help:"Seconds since the service was constructed."`

	// The latency quantiles are bucket upper bounds; one past the last
	// bound (1s) is the exact observed maximum.
	LatencyCount      int64           `json:"latencyCount"`
	LatencyMeanMicros float64         `json:"latencyMeanMicros"`
	LatencyP50Micros  float64         `json:"latencyP50Micros"`
	LatencyP90Micros  float64         `json:"latencyP90Micros"`
	LatencyP99Micros  float64         `json:"latencyP99Micros"`
	LatencyBuckets    []LatencyBucket `json:"latencyBuckets"`

	// Phases summarizes the per-phase duration histograms of the compute
	// path, keyed by phase name (parse, chase, cdm, acim, cim, compact).
	// Phases that never ran are omitted; the full histograms are on
	// /metrics.
	Phases map[string]PhaseSnapshot `json:"phases,omitempty"`
}

// PhaseSnapshot summarizes one pipeline phase's duration histogram.
type PhaseSnapshot struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"meanMicros"`
	P99Micros  float64 `json:"p99Micros"` // past the last bound (1s): the exact maximum
}

// StoreSnapshot is the persistent tier's state as seen on /stats, its
// series declared as on Snapshot.
type StoreSnapshot struct {
	Entries         int   `json:"entries" metric:"tpq_store_entries" help:"Live entries in the persistent tier (0 without one)."`
	LogRecords      int   `json:"logRecords"`
	LogBytes        int64 `json:"logBytes" metric:"tpq_store_log_bytes" help:"Append-log bytes since the last compaction."`
	SnapshotRecords int   `json:"snapshotRecords"`
	ReplayedRecords int   `json:"replayedRecords" metric:"tpq_store_replayed_records" help:"Log records replayed at the last open."`
	TornBytes       int64 `json:"tornBytes" metric:"tpq_store_torn_bytes" help:"Torn log bytes discarded at the last open."`
	Compactions     int64 `json:"compactions" metric:"tpq_store_compactions_total" help:"Snapshot rewrites of the persistent tier."`
}

func (s *Stats) snapshot() Snapshot {
	snap := Snapshot{
		Requests:       s.requests.Load(),
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		InflightMerges: s.merges.Load(),
		Minimizations:  s.minimizations.Load(),
		Evictions:      s.evictions.Load(),
		Unsatisfiable:  s.unsat.Load(),
		CDMRemoved:     s.cdmRemoved.Load(),
		ACIMRemoved:    s.acimRemoved.Load(),
		TablesBuilt:    s.tablesBuilt.Load(),
		TablesDerived:  s.tablesDerived.Load(),
		PlansCompiled:  s.plansCompiled.Load(),
		PlanHits:       s.planHits.Load(),
		Batches:        s.batches.Load(),
		Errors:         s.errors.Load(),
		SlowQueries:    s.slowQueries.Load(),
		SlowLogDropped: s.slowLogDropped.Load(),
		Inflight:       s.inflight.Load(),
		StoreHits:      s.storeHits.Load(),
		StoreMisses:    s.storeMisses.Load(),
		StorePuts:      s.storePuts.Load(),
		StoreErrors:    s.storeErrors.Load(),
		StoreDropped:   s.storeDropped.Load(),
		WarmStarted:    s.warmStarted.Load(),
		MatchRequests:  s.matchRequests.Load(),
		MatchStreams:   s.matchStreams.Load(),
		MatchAnswers:   s.matchAnswers.Load(),
		MatchLimited:   s.matchLimited.Load(),
		OrRequests:     s.orRequests.Load(),
		OrDisjuncts:    s.orDisjuncts.Load(),
		OrAbsorbed:     s.orAbsorbed.Load(),
		OrUnsat:        s.orUnsat.Load(),
		OrCacheHits:    s.orCacheHits.Load(),
	}
	counts, bounds := s.lat.Counts(), s.lat.Bounds()
	snap.LatencyCount = s.lat.Count()
	if snap.LatencyCount > 0 {
		snap.LatencyMeanMicros = micros(s.lat.Sum()) / float64(snap.LatencyCount)
	}
	snap.LatencyP50Micros = micros(s.lat.Quantile(0.50))
	snap.LatencyP90Micros = micros(s.lat.Quantile(0.90))
	snap.LatencyP99Micros = micros(s.lat.Quantile(0.99))
	for i, c := range counts {
		if c == 0 {
			continue
		}
		le := float64(-1)
		if i < len(bounds) {
			le = micros(time.Duration(bounds[i]))
		}
		snap.LatencyBuckets = append(snap.LatencyBuckets, LatencyBucket{LEMicros: le, Count: c})
	}
	for _, p := range trace.Phases() {
		h := s.phase[p]
		n := h.Count()
		if n == 0 {
			continue
		}
		if snap.Phases == nil {
			snap.Phases = make(map[string]PhaseSnapshot, trace.NumPhases)
		}
		snap.Phases[p.String()] = PhaseSnapshot{
			Count:      n,
			MeanMicros: micros(h.Sum()) / float64(n),
			P99Micros:  micros(h.Quantile(0.99)),
		}
	}
	return snap
}
