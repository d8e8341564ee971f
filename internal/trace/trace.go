// Package trace provides cheap per-phase instrumentation for one
// minimization request. The pipeline (parse → chase/augment → CDM →
// ACIM/CIM → compact) is exactly the phase split the paper's Figure 7
// experiments report, and it is where serving cost varies with pattern
// shape, so a Trace carries one duration accumulator and a handful of
// counters per phase — nothing else.
//
// Design constraints, in order:
//
//  1. Free when off. Every method is a no-op on a nil *Trace, so the
//     algorithm packages thread a possibly-nil trace unconditionally and
//     the untraced hot path pays one predictable nil check per span —
//     no interface dispatch, no allocation.
//  2. Allocation-free when on. A Trace is two fixed-size arrays of
//     atomics; starting and ending a span allocates nothing (Span is a
//     small value), so tracing a request costs one Trace allocation
//     total and the ≤2% overhead budget on the Fig 7(b) benchmark holds.
//  3. Safe under concurrency. Phase durations and counters are atomics,
//     so a Trace may be read (the service's histogram merge) while
//     another goroutine records into it.
//
// Spans nest: the ACIM phase wraps the Chase, CIM and Compact
// sub-phases, so Dur(ACIM) ≥ Dur(Chase)+Dur(CIM)+Dur(Compact) while the
// sub-phases themselves are disjoint. Consumers that want disjoint
// buckets (the service's per-phase histograms) use the sub-phases plus
// Parse and CDM.
package trace

import (
	"sync/atomic"
	"time"
)

// Phase identifies one stage of the minimization pipeline.
type Phase uint8

const (
	// Parse is query-text (or XPath) parsing, recorded by the serving
	// layer — the algorithm packages never see unparsed text.
	Parse Phase = iota
	// Chase is the augmentation step of ACIM (chase.Scratch.Augment),
	// which writes the witnesses into the query's flattened layout.
	Chase
	// CDM is the constraint-dependent local pre-filter (cdm.MinimizeInPlace).
	CDM
	// ACIM is the whole augment→CIM pipeline; it nests Chase, CIM and
	// Compact.
	ACIM
	// CIM is the constraint-independent minimization loop, whichever
	// kernel runs it (the incremental engine, or the map oracle).
	CIM
	// Compact is applying CIM's removals to the pattern after its loop:
	// the detaches that, with the witnesses living only in the layout,
	// replaced stripping them from an augmented pattern.
	Compact
	// Match is pattern evaluation over a database — the serving layer's
	// /match endpoint, on the twig engine of match/stream.
	Match
	// NumPhases bounds arrays indexed by Phase.
	NumPhases
)

var phaseNames = [NumPhases]string{"parse", "chase", "cdm", "acim", "cim", "compact", "match"}

// String returns the lower-case phase name used in metric labels and
// slow-query log keys.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases lists every phase in pipeline order — the iteration order of
// metric exporters.
func Phases() []Phase {
	return []Phase{Parse, Chase, CDM, ACIM, CIM, Compact, Match}
}

// Counter identifies one per-request work counter.
type Counter uint8

const (
	// CDMRemoved and ACIMRemoved are nodes eliminated per phase.
	CDMRemoved Counter = iota
	ACIMRemoved
	// Augmented is the number of temporary witness nodes the chase added.
	Augmented
	// Tests is the number of leaf-redundancy tests the CIM phase ran.
	Tests
	// TablesBuilt and TablesDerived split the CIM phase's images tables
	// into full constructions and master-derived tables (see cim.Stats).
	TablesBuilt
	TablesDerived
	// PlansCompiled and PlanHits split the request's chase-plan registry
	// lookups into compilations (misses) and cache hits (see chase.Registry).
	PlansCompiled
	PlanHits
	// NumCounters bounds arrays indexed by Counter.
	NumCounters
)

var counterNames = [NumCounters]string{
	"cdm_removed", "acim_removed", "augmented", "tests", "tables_built", "tables_derived",
	"plans_compiled", "plan_hits",
}

// String returns the snake_case counter name used in metric labels.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Trace accumulates the per-phase durations and counters of one
// minimization request. The zero value is ready to use; a nil *Trace is
// a valid "tracing off" receiver for every method.
type Trace struct {
	durs   [NumPhases]atomic.Int64 // nanoseconds per phase
	counts [NumCounters]atomic.Int64
}

// New returns an empty Trace.
func New() *Trace { return new(Trace) }

// Span is an open phase timer. End it exactly once; the zero Span (from
// a nil Trace) ends harmlessly.
type Span struct {
	tr    *Trace
	start time.Time
	phase Phase
}

// Start opens a span on phase p. Spans on different phases may overlap
// (that is how ACIM nests its sub-phases); two open spans on the same
// phase would double-count.
func (t *Trace) Start(p Phase) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, start: time.Now(), phase: p}
}

// End closes the span, adding its elapsed time to the phase total.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.durs[s.phase].Add(int64(time.Since(s.start)))
}

// AddDur adds d to phase p directly — for callers that already measured
// (the algorithm packages' existing Stats carry durations).
func (t *Trace) AddDur(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t.durs[p].Add(int64(d))
}

// Dur returns the accumulated time of phase p; zero on a nil Trace.
func (t *Trace) Dur(p Phase) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.durs[p].Load())
}

// Add increments counter c by n.
func (t *Trace) Add(c Counter, n int) {
	if t == nil || n == 0 {
		return
	}
	t.counts[c].Add(int64(n))
}

// Count returns the value of counter c; zero on a nil Trace.
func (t *Trace) Count(c Counter) int64 {
	if t == nil {
		return 0
	}
	return t.counts[c].Load()
}
