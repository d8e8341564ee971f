package difffuzz

import (
	"context"
	"math/rand"
	"sort"

	"tpq/internal/acim"
	"tpq/internal/data"
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
// generated forest; stream.UnionCount must equal that union's size.
// Minimization: the service's cold disjunctive path (per-disjunct
// pipeline over its worker pool, then absorption pruning) must preserve
// the union — certified by per-disjunct-pair containment both ways:
// every satisfiable input disjunct is contained in some output disjunct,
// and every output disjunct is contained in some input disjunct. The
// output must carry no absorbable disjunct (none contained in another)
// and no unsatisfiable one unless the whole union is flagged, each output
// disjunct must be individually minimal, and the report must account for
// every input disjunct (unsat + absorbed + kept). A repeat of the same
// union must be served from the cache unchanged. On a forest satisfying
// the constraints, the input and minimized unions must produce the same
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
	// unionAnswers returns the streamed union and the union count.
	unionAnswers := func(d *pattern.Disjunction, idx *match.ForestIndex) ([]*data.Node, int, *Failure) {
		qs := make([]*stream.Query, 0, len(d.Disjuncts))
		for _, p := range d.Disjuncts {
			sq, err := stream.Compile(p, idx, stream.Options{})
			if err != nil {
				return nil, 0, fail(rq, cs, "or", "stream compile of disjunct %s: %v", p, err)
			}
			qs = append(qs, sq)
		}
		var streamed []*data.Node
		for v := range stream.UnionAnswers(ctx, qs) {
			streamed = append(streamed, v)
		}
		return streamed, stream.UnionCount(ctx, qs), nil
	}

	for fi, f := range forests {
		streamed, count, fl := unionAnswers(d, match.NewForestIndex(f))
		if fl != nil {
			return fl
		}
		for i := 1; i < len(streamed); i++ {
			if streamed[i-1].ID >= streamed[i].ID {
				return fail(rq, cs, "or", "forest %d: streamed union out of document order or duplicated at %d (union %s)",
					fi, streamed[i].ID, d)
			}
		}
		want := referenceUnion(d, f)
		if !sameNodeLists(want, streamed) {
			return fail(rq, cs, "or", "forest %d: reference union found %d answers, streamed union %d (union %s)",
				fi, len(want), len(streamed), d)
		}
		if count != len(want) {
			return fail(rq, cs, "or", "forest %d: reference union found %d answers, UnionCount says %d (union %s)",
				fi, len(want), count, d)
		}
	}

	// Minimization: the service's cold run, then the pairwise containment
	// certificate in both directions.
	svc := service.New(service.Options{Constraints: cs, Workers: 2})
	out, rep, err := svc.MinimizeDisjunction(ctx, d)
	if err != nil {
		return fail(rq, cs, "or", "MinimizeDisjunction: %v (union %s)", err, d)
	}
	if len(out.Disjuncts) == 0 {
		return fail(rq, cs, "or", "minimized union is empty (union %s)", d)
	}
	if err := out.Validate(); err != nil {
		return fail(rq, cs, "or", "minimized union invalid: %v (union %s)", err, d)
	}
	if rep.Disjuncts != len(d.Disjuncts) || rep.Kept != len(out.Disjuncts) ||
		rep.Unsat+rep.Absorbed+rep.Kept != rep.Disjuncts {
		return fail(rq, cs, "or", "report %+v does not account for %d input and %d output disjuncts (union %s)",
			rep, len(d.Disjuncts), len(out.Disjuncts), d)
	}
	if rep.Unsatisfiable {
		if len(out.Disjuncts) != 1 {
			return fail(rq, cs, "or", "all-unsat union kept %d disjuncts (union %s)", len(out.Disjuncts), d)
		}
		for _, p := range d.Disjuncts {
			if !oracle.UnsatisfiableUnder(p, closed) {
				return fail(rq, cs, "or", "union flagged unsatisfiable but disjunct %s is satisfiable", p)
			}
		}
	} else {
		// Unsatisfiable disjuncts were dropped: none survives in a union
		// that is not flagged as a whole.
		for _, o := range out.Disjuncts {
			if oracle.UnsatisfiableUnder(o, closed) {
				return fail(rq, cs, "or", "output disjunct %s is unsatisfiable but the union is not flagged (output %s)", o, out)
			}
		}
		// Forward: every satisfiable input disjunct is contained in some
		// output disjunct — nothing was lost.
		for _, p := range d.Disjuncts {
			if oracle.UnsatisfiableUnder(p, closed) {
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

	// A repeat of the same union is a cache hit with the same result: the
	// or-cache for a union, the conjunctive cache for a singleton.
	hot, hotRep, err := svc.MinimizeDisjunction(ctx, d.Clone())
	if err != nil {
		return fail(rq, cs, "or", "repeat: %v (union %s)", err, d)
	}
	if !hotRep.CacheHit {
		return fail(rq, cs, "or", "repeat union missed the cache (union %s)", d)
	}
	if hot.Canonical() != out.Canonical() {
		return fail(rq, cs, "or", "cache served %s, cold run %s (union %s)", hot, out, d)
	}

	// On a forest satisfying the constraints, the minimized union answers
	// exactly like the input union — equivalence observed end to end.
	if constrained != nil {
		idx := match.NewForestIndex(constrained)
		want, _, fl := unionAnswers(d, idx)
		if fl != nil {
			return fl
		}
		got, _, fl := unionAnswers(out, idx)
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
