// Package acim implements Algorithm ACIM (Section 5.2-5.3 of the paper):
// constraint-dependent minimization of a tree pattern query by
// augmentation followed by constraint-independent minimization.
//
// ACIM runs three steps:
//
//  1. Augment the query with respect to the logical closure of the given
//     integrity constraints (package chase). Added nodes and type
//     associations are temporary: witnesses for containment mappings, never
//     requirements, never candidates for elimination.
//  2. Run CIM (package cim) on the augmented query. Temporary nodes widen
//     the image sets, exposing redundancies that only hold under the
//     constraints.
//  3. Strip the temporary nodes and type associations.
//
// Theorem 5.1: for required-child, required-descendant and co-occurrence
// constraints the minimal equivalent query under the constraints is unique,
// and ACIM finds it. ACIM is a direct implementation of the optimal
// strategy A·M·R of Lemma 5.4 (augment, minimize, reduce); the reduction
// step and the strategy algebra the lemmas speak about are in
// internal/oracle (Reduce, ApplyStrategy), where the tests exercise them.
package acim

import (
	"time"

	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/containment"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// Stats describes an ACIM run.
type Stats struct {
	// Augmented is the number of temporary nodes added.
	Augmented int
	// AugmentedSize is the query size after augmentation (permanent +
	// temporary nodes).
	AugmentedSize int
	// Removed is the number of permanent nodes eliminated.
	Removed int
	// Tests is the number of leaf-redundancy tests run by the CIM phase.
	Tests int
	// TablesBuilt and TablesDerived split the CIM phase's images tables
	// into full constructions and tables derived from a run's master state
	// by interval masking (see cim.Stats); TablesDerived : TablesBuilt is
	// the amortization ratio of the incremental engine.
	TablesBuilt, TablesDerived int
	// TablesTime is the time spent building images and ancestor/descendant
	// tables (Figure 7(b) reports this fraction of TotalTime).
	TablesTime time.Duration
	// AugmentTime is the time spent in the augmentation step, including
	// closing the constraint set if it was not already closed.
	AugmentTime time.Duration
	// TotalTime is the wall-clock time of the whole run.
	TotalTime time.Duration
}

// Minimize returns the unique minimal query equivalent to p under cs,
// leaving p untouched. cs need not be closed.
func Minimize(p *pattern.Pattern, cs *ics.Set) *pattern.Pattern {
	q, _ := MinimizeWithStats(p, cs)
	return q
}

// MinimizeWithStats is Minimize with run statistics.
func MinimizeWithStats(p *pattern.Pattern, cs *ics.Set) (*pattern.Pattern, Stats) {
	return MinimizeWithRunner(p, cs, func(q *pattern.Pattern) cim.Stats {
		return cim.MinimizeInPlace(q, cim.Options{})
	})
}

// MinimizeWithRunner is MinimizeWithStats with the CIM phase supplied by
// the caller: run receives the augmented query and minimizes it in place.
// The engine package injects its parallel screening loop here, so the
// concurrency policy lives with the worker pool while augmentation and
// temporary-stripping stay in one place; tests plug in the reference
// kernels of internal/oracle the same way.
func MinimizeWithRunner(p *pattern.Pattern, cs *ics.Set, run func(*pattern.Pattern) cim.Stats) (*pattern.Pattern, Stats) {
	return MinimizeWithRunnerTraced(p, cs, nil, run)
}

// MinimizeWithRunnerTraced is MinimizeWithRunner recording the run into
// tr: the whole pipeline under the ACIM phase, augmentation under the
// nested Chase phase, the temporary strip under Compact, and removals
// under the ACIMRemoved counter. The runner is expected to meter the CIM
// phase itself (cim.MinimizeInPlace and the engine's screening loop do,
// via cim.Stats.Record), so Chase + CIM + Compact nest inside — and sum
// to at most — ACIM. tr may be nil (then it is exactly
// MinimizeWithRunner).
func MinimizeWithRunnerTraced(p *pattern.Pattern, cs *ics.Set, tr *trace.Trace, run func(*pattern.Pattern) cim.Stats) (*pattern.Pattern, Stats) {
	var st Stats
	sp := tr.Start(trace.ACIM)
	start := time.Now()
	q := p.Clone()
	if cs == nil {
		cs = ics.NewSet()
	}

	// Augment through the precompiled chase plan: the registry closes the
	// set and compiles once per fingerprint, so repeat minimizations under
	// one schema pay a map probe plus work proportional to the query.
	tAug := time.Now()
	pl := chase.PlanForTraced(cs, tr)
	st.Augmented = pl.AugmentTraced(q, tr)
	st.AugmentTime = time.Since(tAug)
	st.AugmentedSize = q.Size()

	cimStats := run(q)
	st.Removed = cimStats.Removed
	st.Tests = cimStats.Tests
	st.TablesBuilt = cimStats.TablesBuilt
	st.TablesDerived = cimStats.TablesDerived
	st.TablesTime = cimStats.TablesTime

	spStrip := tr.Start(trace.Compact)
	q.StripTemp()
	spStrip.End()
	st.TotalTime = time.Since(start)
	sp.End()
	tr.Add(trace.ACIMRemoved, st.Removed)
	return q, st
}

// EquivalentUnder reports whether a and b are equivalent under cs
// (two-way containment under the constraints).
//
// Containment a ⊆_C b is decided by chasing a with the consequences of cs
// that can matter for a mapping b → chase(a), then searching for that
// mapping. Required-edge constraints are kept when their target type is
// wanted in the chase.WantedWitnessTypes sense — the target, one of its
// co-occurrence types, or a type required below it occurs in the pair.
// Filtering by the pair's own types alone is not enough: a constraint
// chain t0 -> t3, t3 ~ t1, t3 -> t5 justifies mapping t1/t5 onto the
// guaranteed t3 child even when t3 occurs in neither query (found by the
// difffuzz equivalence oracle). The chase is bounded at size(b) plus the
// number of kept constraint types plus 2 rounds — enough to build every
// witness chain on an acyclic (after closure) set, so the check is exact
// there; for required-edge cycles — satisfiable only by infinite
// databases — it is sound but may under-approximate.
func EquivalentUnder(a, b *pattern.Pattern, cs *ics.Set) bool {
	closed := cs.Closure()
	return ContainedUnder(a, b, closed) && ContainedUnder(b, a, closed)
}

// ContainedUnder reports a ⊆_C b. cs must be closed; see EquivalentUnder.
func ContainedUnder(a, b *pattern.Pattern, cs *ics.Set) bool {
	relevant := a.TypeSet()
	for t := range b.TypeSet() {
		relevant[t] = true
	}
	// The wanted set comes from the precompiled trigger relation of the
	// pair's chase plan — equivalence judging under one schema reuses the
	// same registry entry the minimization pipeline compiled.
	wanted := chase.PlanFor(cs).Wanted(relevant)
	filtered := ics.NewSet()
	for _, c := range cs.Constraints() {
		switch c.Kind {
		case ics.RequiredChild, ics.RequiredDescendant:
			if wanted[c.To] {
				filtered.Add(c)
			}
		default:
			if relevant[c.To] {
				filtered.Add(c)
			}
		}
	}
	chased := a.Clone()
	chase.FullChase(chased, filtered, b.Size()+len(filtered.Types())+2)
	return containment.Exists(b, chased)
}
