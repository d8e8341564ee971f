package difffuzz

import (
	"context"
	"math/rand"
	"sort"

	"tpq/internal/acim"
	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
	"tpq/internal/service"
)

// CheckOr runs oracle 9: disjunctive queries. Evaluation: the streamed
// union (stream.UnionAnswers) must be strictly document-ordered and
// duplicate-free, and equal the union of the disjuncts' answer sets under
// oracle.BindingsMap, on every disjunct's canonical database and on a
// generated forest.
// Minimization: the per-disjunct pipeline plus absorption pruning
// (engine.MinimizeDisjunction) must preserve the union — certified by
// per-disjunct-pair containment both ways: every satisfiable input
// disjunct is contained in some output disjunct, and every output
// disjunct is contained in some input disjunct. The output must carry no
// absorbable disjunct (none contained in another) and each output
// disjunct must be individually minimal. The serving layer's disjunctive
// path must agree with the direct engine run, and serve a repeat of the
// same union from its or-cache unchanged. On a forest satisfying the
// constraints, the input and minimized unions must produce the same
// answers. cs may be nil.
func CheckOr(d *pattern.Disjunction, cs *ics.Set) *Failure {
	if d == nil || len(d.Disjuncts) == 0 || d.Validate() != nil {
		return nil
	}
	if cs == nil {
		cs = ics.NewSet()
	}
	closed := cs.Closure()
	// Failure carries a conjunctive repro slot; report the first disjunct
	// there and spell the whole union in the detail.
	rq := d.Disjuncts[0]

	// Evaluation forests: each disjunct's canonical database (guaranteed
	// to answer that disjunct), plus a generated forest over the union
	// alphabet. The constrained variant, when cs is satisfiable by finite
	// trees, additionally supports the input-vs-minimized answer check.
	var forests []*data.Forest
	for _, p := range d.Disjuncts {
		canon, _ := data.Canonical(p, 1)
		forests = append(forests, canon)
	}
	typeSet := make(map[pattern.Type]bool)
	for _, p := range d.Disjuncts {
		for t := range p.TypeSet() {
			typeSet[t] = true
		}
	}
	var types []pattern.Type
	for t := range typeSet {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	var constrained *data.Forest
	if len(types) > 0 {
		rng := rand.New(rand.NewSource(int64(d.Size())*7919 + int64(len(types))))
		if f, err := data.Generate(rng, data.GenOptions{Size: 40, Types: types, Constraints: cs}); err == nil {
			constrained = f
			forests = append(forests, f)
		} else if f, err := data.Generate(rng, data.GenOptions{Size: 40, Types: types}); err == nil {
			forests = append(forests, f)
		}
	}

	ctx := context.Background()
	unionAnswers := func(d *pattern.Disjunction, idx *match.ForestIndex) ([]*data.Node, *Failure) {
		qs := make([]*stream.Query, 0, len(d.Disjuncts))
		for _, p := range d.Disjuncts {
			sq, err := stream.Compile(p, idx, stream.Options{})
			if err != nil {
				return nil, fail(rq, cs, "or", "stream compile of disjunct %s: %v", p, err)
			}
			qs = append(qs, sq)
		}
		var streamed []*data.Node
		for v := range stream.UnionAnswers(ctx, qs) {
			streamed = append(streamed, v)
		}
		return streamed, nil
	}

	for fi, f := range forests {
		streamed, fl := unionAnswers(d, match.NewForestIndex(f))
		if fl != nil {
			return fl
		}
		for i := 1; i < len(streamed); i++ {
			if streamed[i-1].ID >= streamed[i].ID {
				return fail(rq, cs, "or", "forest %d: streamed union out of document order or duplicated at %d (union %s)",
					fi, streamed[i].ID, d)
			}
		}
		if want := referenceUnion(d, f); !sameNodeLists(want, streamed) {
			return fail(rq, cs, "or", "forest %d: reference union found %d answers, streamed union %d (union %s)",
				fi, len(want), len(streamed), d)
		}
	}

	// Minimization: per-disjunct pipeline + absorption, then the pairwise
	// containment certificate in both directions.
	m := engine.New(engine.Options{Constraints: cs, Workers: 1})
	r, err := m.MinimizeDisjunction(ctx, d)
	if err != nil {
		return fail(rq, cs, "or", "MinimizeDisjunction: %v (union %s)", err, d)
	}
	out := r.Output
	if len(out.Disjuncts) == 0 {
		return fail(rq, cs, "or", "minimized union is empty (union %s)", d)
	}
	if err := out.Validate(); err != nil {
		return fail(rq, cs, "or", "minimized union invalid: %v (union %s)", err, d)
	}
	if r.Unsatisfiable {
		if len(out.Disjuncts) != 1 {
			return fail(rq, cs, "or", "all-unsat union kept %d disjuncts (union %s)", len(out.Disjuncts), d)
		}
		for _, p := range d.Disjuncts {
			if !acim.UnsatisfiableUnder(p, closed) {
				return fail(rq, cs, "or", "union flagged unsatisfiable but disjunct %s is satisfiable", p)
			}
		}
	} else {
		// Forward: every satisfiable input disjunct is contained in some
		// output disjunct — nothing was lost.
		for _, p := range d.Disjuncts {
			if acim.UnsatisfiableUnder(p, closed) {
				continue
			}
			covered := false
			for _, o := range out.Disjuncts {
				if acim.ContainedUnder(p, o, closed) {
					covered = true
					break
				}
			}
			if !covered {
				return fail(rq, cs, "or", "input disjunct %s is not contained in any output disjunct (output %s)", p, out)
			}
		}
		// Backward: every output disjunct is contained in some input
		// disjunct — nothing was invented.
		for _, o := range out.Disjuncts {
			covered := false
			for _, p := range d.Disjuncts {
				if acim.ContainedUnder(o, p, closed) {
					covered = true
					break
				}
			}
			if !covered {
				return fail(rq, cs, "or", "output disjunct %s is not contained in any input disjunct (input %s)", o, d)
			}
		}
		// No output disjunct is absorbable: absorption pruning ran to a
		// fixed point.
		for i, oi := range out.Disjuncts {
			for j, oj := range out.Disjuncts {
				if i != j && acim.ContainedUnder(oi, oj, closed) {
					return fail(rq, cs, "or", "output disjunct %s is still absorbed by %s (output %s)", oi, oj, out)
				}
			}
		}
		// Each output disjunct is individually minimal: re-minimizing it
		// must be an isomorphism (Theorem 4.1 per disjunct).
		for _, o := range out.Disjuncts {
			again, _ := acim.MinimizeWithStats(o, closed)
			if !pattern.Isomorphic(o, again) {
				return fail(rq, cs, "or", "output disjunct %s re-minimizes to %s (output %s)", o, again, out)
			}
		}
	}

	// Serving parity: the service's disjunctive path (per-disjunct through
	// its cache, absorption, or-cache) agrees with the direct engine run,
	// and a repeat of the same union is an or-cache hit with the same
	// result. Singletons take the conjunctive path; oracle 5 owns those.
	if len(d.Disjuncts) > 1 {
		svc := service.New(service.Options{Constraints: cs, Workers: 1})
		got, srep, err := svc.MinimizeDisjunction(ctx, d)
		if err != nil {
			return fail(rq, cs, "or", "service MinimizeDisjunction: %v (union %s)", err, d)
		}
		if got.Canonical() != out.Canonical() {
			return fail(rq, cs, "or", "service produced %s, direct engine %s (union %s)", got, out, d)
		}
		if srep.Unsatisfiable != r.Unsatisfiable || srep.Kept != len(out.Disjuncts) {
			return fail(rq, cs, "or", "service report %+v disagrees with engine result (kept %d, unsat %v)",
				srep, len(out.Disjuncts), r.Unsatisfiable)
		}
		hot, hotRep, err := svc.MinimizeDisjunction(ctx, d.Clone())
		if err != nil {
			return fail(rq, cs, "or", "service repeat: %v (union %s)", err, d)
		}
		if !hotRep.CacheHit {
			return fail(rq, cs, "or", "repeat union missed the or-cache (union %s)", d)
		}
		if hot.Canonical() != out.Canonical() {
			return fail(rq, cs, "or", "or-cache served %s, engine %s (union %s)", hot, out, d)
		}
	}

	// On a forest satisfying the constraints, the minimized union answers
	// exactly like the input union — equivalence observed end to end.
	if constrained != nil {
		idx := match.NewForestIndex(constrained)
		want, fl := unionAnswers(d, idx)
		if fl != nil {
			return fl
		}
		got, fl := unionAnswers(out, idx)
		if fl != nil {
			return fl
		}
		if !sameNodeLists(want, got) {
			return fail(rq, cs, "or", "on a constraint-satisfying forest the input union answers %d nodes, the minimized union %d (input %s, output %s)",
				len(want), len(got), d, out)
		}
	}
	return nil
}

// referenceUnion is the answer set of d by definition: the disjuncts'
// oracle.BindingsMap answer sets merged by node ID, duplicates removed.
func referenceUnion(d *pattern.Disjunction, f *data.Forest) []*data.Node {
	seen := make(map[*data.Node]bool)
	var out []*data.Node
	for _, p := range d.Disjuncts {
		for _, v := range oracle.BindingsMap(p, f)[p.OutputNode()] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
