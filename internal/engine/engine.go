// Package engine runs the paper's minimization pipeline on one query:
// CDM as a constraint-dependent local pre-filter, then ACIM (Theorem 5.3
// makes the combination exact), or one of the single algorithms. The
// Minimizer closes its constraint set once and shares it read-only, so
// one Minimizer may serve any number of concurrent calls. It starts no
// goroutine of its own: fanning queries and union disjuncts out to
// workers is the serving layer's job (internal/service).
package engine

import (
	"context"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// Algo selects the minimization algorithm. The names match cmd/tpqmin's
// -algo flag.
type Algo string

const (
	// Auto runs CDM as a constraint-dependent pre-filter, then ACIM. This
	// is the paper's recommended pipeline and the default.
	Auto Algo = "auto"
	// CIM runs constraint-independent minimization only; constraints are
	// ignored.
	CIM Algo = "cim"
	// CDM runs only the fast constraint-dependent local pruning.
	CDM Algo = "cdm"
	// ACIM runs augmentation followed by CIM, without the CDM pre-filter.
	ACIM Algo = "acim"
)

// Options configure a Minimizer.
type Options struct {
	// Algo is the pipeline; empty means Auto.
	Algo Algo
	// Constraints are the integrity constraints minimized under. The set
	// is closed once at construction and shared read-only by every call.
	// Nil means no constraints.
	Constraints *ics.Set
}

// Result is the outcome of minimizing one query.
type Result struct {
	// Output is the minimized query.
	Output *pattern.Pattern
	// CDMRemoved and ACIMRemoved split the removed nodes between the
	// local pre-filter and the global phase; a single-algorithm pipeline
	// reports only its own phase (CIM counts as the global phase).
	CDMRemoved, ACIMRemoved int
	// TablesBuilt and TablesDerived report the images-table reuse of the
	// run: full constructions vs tables derived from a master state by
	// interval masking (see cim.Stats). The serving layer exports their
	// totals so the amortization ratio is visible in /stats.
	TablesBuilt, TablesDerived int
	// Unsatisfiable is set when the input can never return an answer
	// under the constraints (chase.Scratch.Unsatisfiable, on the input's
	// layout before CDM).
	Unsatisfiable bool
}

// Minimizer minimizes queries under one closed constraint set. It is
// safe for concurrent use.
type Minimizer struct {
	algo   Algo
	closed *ics.Set
	plan   *chase.Plan // closed's chase plan: every run numbers types by its alphabet
}

// New returns a Minimizer with the given options.
func New(opts Options) *Minimizer {
	if opts.Algo == "" {
		opts.Algo = Auto
	}
	m := &Minimizer{algo: opts.Algo, closed: opts.Constraints.Closure()}
	// Warm the chase-plan registry: compiling the plan at construction
	// means the first request pays a cache hit like every later one.
	m.plan = chase.PlanFor(m.closed)
	return m
}

// Closed returns the minimizer's constraint set, closed once at
// construction and shared read-only by every call. Callers must not
// modify it.
func (m *Minimizer) Closed() *ics.Set { return m.closed }

// MinimizeContextTraced minimizes q through the configured pipeline,
// recording per-phase spans and work counters into tr (see
// internal/trace): CDM, and ACIM with its nested Chase, CIM and Compact
// sub-phases. tr may be nil, in which case the run pays one nil check
// per phase and nothing else. q is never mutated.
//
// The run flattens one private copy of q once, into a pooled scratch, and
// hands that layout to the unsatisfiability check, CDM, the chase and CIM
// in turn. The context is checked on entry and, on the Auto pipeline,
// again between the CDM pre-filter and the ACIM phase (the expensive
// part), so a caller whose deadline fires during CDM pays nothing for
// ACIM. A phase that has started always runs to completion; on
// cancellation the Result is zero.
func (m *Minimizer) MinimizeContextTraced(ctx context.Context, q *pattern.Pattern, tr *trace.Trace) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	pl := m.plan
	if m.algo == Auto || m.algo == ACIM {
		// ACIM's registry lookup: tpq_plan_hits_total counts it.
		pl = chase.PlanForTraced(m.closed, tr)
	}
	out := q.Clone()
	s := chase.GetScratch(pl)
	defer s.Release()
	s.Flatten(out)
	r := Result{Output: out, Unsatisfiable: s.Unsatisfiable()}
	switch m.algo {
	case CIM:
		st := cim.MinimizeLayout(s, cim.Options{Trace: tr})
		r.ACIMRemoved, r.TablesBuilt, r.TablesDerived = st.Removed, st.TablesBuilt, st.TablesDerived
		return r, nil
	case CDM, Auto:
		r.CDMRemoved = cdm.MinimizeLayout(s, tr).Removed
		if m.algo == CDM {
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	st := acim.MinimizeLayout(s, tr)
	r.ACIMRemoved, r.TablesBuilt, r.TablesDerived = st.Removed, st.TablesBuilt, st.TablesDerived
	return r, nil
}
