package tpq

import (
	"context"

	"tpq/internal/engine"
	"tpq/internal/service"
)

// MinimizerOptions configure a Minimizer.
type MinimizerOptions struct {
	// Constraints are the integrity constraints every query is minimized
	// under; nil means none. Their closure is computed once, when the
	// Minimizer is built — not per call, as the package-level functions
	// must.
	Constraints *Constraints
	// Workers sizes the worker pool that minimizes the queries of
	// MinimizeBatch and the disjuncts of MinimizeDisjunction concurrently;
	// <= 0 means all CPUs.
	Workers int
	// CacheSize is the capacity, in queries, of the built-in result cache:
	// 0 picks a default (1024), negative disables caching. The cache is
	// keyed by the query's canonical form, so any query isomorphic to one
	// already minimized is served by a lookup and a copy — sound because
	// the minimal query is unique up to isomorphism (Theorem 4.1).
	CacheSize int
}

// MinimizerStats is a point-in-time snapshot of a Minimizer's counters:
// cache hits and misses, merged concurrent requests, per-phase node
// removals and a latency histogram. It marshals to JSON; cmd/tpqd serves
// it at /stats.
type MinimizerStats = service.Snapshot

// Minimizer is a long-lived minimization instance: the CDM+ACIM pipeline
// behind a canonical-form-keyed cache, with the constraint closure
// computed once and concurrent identical requests deduplicated into a
// single pipeline run. It is safe for concurrent use. Prefer it over the
// package-level functions whenever more than a handful of queries are
// minimized under the same constraints; cmd/tpqd serves one over HTTP.
type Minimizer struct {
	svc *service.Service
}

// NewMinimizer returns a Minimizer with the given options.
func NewMinimizer(opts MinimizerOptions) *Minimizer {
	return newMinimizerAlgo(opts, engine.Auto)
}

// newMinimizerAlgo also fixes the pipeline algorithm — the package-level
// Minimize wrapper uses it to stay on plain CIM.
func newMinimizerAlgo(opts MinimizerOptions, algo engine.Algo) *Minimizer {
	return &Minimizer{svc: service.New(service.Options{
		Constraints: opts.Constraints,
		Workers:     opts.Workers,
		CacheSize:   opts.CacheSize,
		Algo:        algo,
	})}
}

// Minimize returns the unique minimal query equivalent to p under the
// Minimizer's constraints. p is not modified; the result is always a
// private copy, even on a cache hit. A nil or empty pattern returns nil.
func (m *Minimizer) Minimize(p *Pattern) *Pattern {
	out, _, _ := m.svc.Minimize(context.Background(), p)
	return out
}

// MinimizeContext is Minimize with cancellation: ctx is honored while
// waiting on another request's identical minimization and between the CDM
// and ACIM phases of a fresh one. The only errors are ctx's and a
// rejection of a nil or empty pattern.
func (m *Minimizer) MinimizeContext(ctx context.Context, p *Pattern) (*Pattern, error) {
	out, _, err := m.svc.Minimize(ctx, p)
	return out, err
}

// MinimizeReport is Minimize with a breakdown of the work done; see
// Report. A nil or empty pattern returns nil and a zero Report.
func (m *Minimizer) MinimizeReport(p *Pattern) (*Pattern, Report) {
	out, rep, err := m.svc.Minimize(context.Background(), p)
	if err != nil {
		return nil, Report{}
	}
	return out, toReport(rep)
}

// OrReport describes how one disjunctive request was served: per-disjunct
// pipeline counters summed, plus the disjunct bookkeeping (absorbed,
// unsatisfiable, kept) and whether the assembled union came from the
// or-cache.
type OrReport = service.OrReport

// MinimizeDisjunction minimizes a disjunctive query under the Minimizer's
// constraints: every disjunct through the conjunctive cache individually
// (concurrently, over the worker pool), unsatisfiable disjuncts dropped,
// the rest absorption-pruned, and the assembled union cached under its
// disjunct-sorted canonical form. A nil or empty disjunction returns nil
// and a zero report.
func (m *Minimizer) MinimizeDisjunction(d *Disjunction) (*Disjunction, OrReport) {
	out, rep, err := m.svc.MinimizeDisjunction(context.Background(), d)
	if err != nil {
		return nil, OrReport{}
	}
	return out, rep
}

// MinimizeBatch minimizes every query concurrently over the Minimizer's
// worker budget, in input order; duplicates within one batch share a
// single minimization. On cancellation the whole batch fails.
func (m *Minimizer) MinimizeBatch(ctx context.Context, queries []*Pattern) ([]*Pattern, []Report, error) {
	outs, sreps, err := m.svc.MinimizeBatch(ctx, queries)
	if err != nil {
		return nil, nil, err
	}
	reps := make([]Report, len(sreps))
	for i, r := range sreps {
		reps[i] = toReport(r)
	}
	return outs, reps, nil
}

// Constraints returns the closed constraint set the Minimizer works
// under. Callers must not modify it.
func (m *Minimizer) Constraints() *Constraints { return m.svc.Constraints() }

// Stats returns a snapshot of the Minimizer's counters.
func (m *Minimizer) Stats() MinimizerStats { return m.svc.Stats() }

func toReport(r service.Report) Report {
	return Report{
		InputSize:     r.InputSize,
		OutputSize:    r.OutputSize,
		CDMRemoved:    r.CDMRemoved,
		ACIMRemoved:   r.ACIMRemoved,
		Unsatisfiable: r.Unsatisfiable,
		CacheHit:      r.CacheHit,
		Merged:        r.Merged,
	}
}
