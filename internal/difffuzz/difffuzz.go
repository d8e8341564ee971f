// Package difffuzz is the differential fuzzing harness for the
// minimization pipeline: it runs a query (and optionally a constraint set)
// through every implemented pipeline variant and checks the invariants the
// paper proves about them. Theorems 4.1 and 5.1 guarantee a *unique*
// minimal equivalent query — with and without integrity constraints —
// which makes a perfect oracle: any divergence between two variants, or
// between a variant and the containment-based equivalence judge, is a bug
// by construction. No ground-truth corpus is needed; the reference
// kernels of internal/oracle serve oracles 4, 6, 7 and 9.
//
// Nine oracles are checked (Check runs the conjunctive eight; CheckOr
// runs the ninth on disjunctive queries):
//
//  1. Equivalence: the minimized output is equivalent to the input —
//     two-way containment (Section 4), judged under the constraints by the
//     bounded-chase procedure of acim.EquivalentUnder. The CDM pre-filter's
//     intermediate output is checked too (Theorem 5.2: CDM is sound).
//  2. Minimality: no single leaf of the output can be removed without
//     breaking equivalence (Proposition 4.1: a minimal query has no
//     redundant node; removing a whole redundant subtree is equivalent iff
//     removing one of its leaves is, by containment monotonicity).
//  3. Agreement: CDM-then-ACIM yields the same query as ACIM alone
//     (Theorem 5.3), and CIM is independent of the elimination order
//     (Theorem 4.1 via the MEO lemmas).
//  4. Kernels: the production kernels agree with the nested-map
//     references of internal/oracle. ACIM with the incremental
//     images-table engine produces a canonical form byte-identical to
//     the reference ACIM (oracle.MinimizeACIMMap: the per-call chase,
//     then the reference leaf-redundancy test), and the dense
//     containment-mapping search agrees with oracle.FindMappingMap.
//  5. Service: the cached, singleflight-deduplicated serving path returns
//     results isomorphic to a direct engine run — on a cold miss, on a hot
//     cache hit, with caching disabled, and across a duplicate-heavy batch
//     — with consistent report flags.
//  6. Augment: plan-based augmentation (chase.Plan, compiled once per
//     closed constraint set) writes a layout identical — node for node,
//     including witness marks, own and added types, edge kinds and child
//     order, as oracle.RenderLayout and RenderMarked show them — to the
//     pattern the per-call oracle.Augment marks, and reports the same
//     node count and the same wanted-witness set.
//  7. Match: the evaluation kernels agree with the literal embedding
//     definition of internal/oracle. The twig engine (match/stream)
//     yields exactly the answer set of oracle.BindingsMap, and the
//     streamed embedding enumeration and the compiled query's embedding
//     count agree with oracle.CountEmbeddingsMap, on the query's
//     canonical database and a generated forest.
//  8. Store: an entry persisted through the serving layer's write-behind
//     tier and reloaded by a fresh service over the same store files is
//     byte-identical (canonical form) to a freshly computed
//     minimization, served as a cache hit with the same report — the
//     persistence round trip never changes an answer.
//  9. Or: disjunctive queries. The streamed union agrees answer for
//     answer, in strict document order, with the union of the
//     disjuncts' oracle.BindingsMap answer sets; per-disjunct
//     minimization plus absorption pruning preserves the union,
//     certified by per-disjunct-pair containment in both directions; no
//     output disjunct absorbs another, each is individually minimal, the
//     serving layer's disjunctive path (with its or-cache) agrees with
//     the direct engine, and on a constraint-satisfying forest the input
//     and minimized unions answer identically.
//
// The package is pure tooling: it must never mutate its inputs, and a nil
// error means every oracle held.
package difffuzz

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"os"
	"sort"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/chase"
	"tpq/internal/cim"
	"tpq/internal/containment"
	"tpq/internal/data"
	"tpq/internal/engine"
	"tpq/internal/ics"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
	"tpq/internal/service"
	"tpq/internal/store"
)

// Failure is one oracle violation. Oracle names the invariant that broke
// ("equivalence", "minimality", "agreement", "kernel", "service",
// "augment", "match", "store", "or"); Query and Constraints reproduce
// the failing case (for "or", Query is the first disjunct and the full
// union is spelled in Detail).
type Failure struct {
	Oracle      string
	Detail      string
	Query       *pattern.Pattern
	Constraints *ics.Set
}

// Error renders the failure with its repro strings.
func (f *Failure) Error() string {
	return fmt.Sprintf("difffuzz: oracle %q failed: %s\n  query: %s\n  ics:   %s",
		f.Oracle, f.Detail, f.Query, constraintString(f.Constraints))
}

func constraintString(cs *ics.Set) string {
	if cs == nil || cs.Len() == 0 {
		return "(none)"
	}
	return cs.String()
}

func fail(q *pattern.Pattern, cs *ics.Set, name, format string, args ...interface{}) *Failure {
	return &Failure{Oracle: name, Detail: fmt.Sprintf(format, args...), Query: q, Constraints: cs}
}

// Check runs the eight conjunctive oracles on q under cs (nil means no
// constraints) and returns the first violation, or nil. q is never
// mutated. Disjunctive queries go through CheckOr.
func Check(q *pattern.Pattern, cs *ics.Set) *Failure {
	if f := CheckMinimize(q, cs); f != nil {
		return f
	}
	if f := CheckAugment(q, cs); f != nil {
		return f
	}
	if f := CheckService(q, cs); f != nil {
		return f
	}
	if f := CheckStore(q, cs); f != nil {
		return f
	}
	return CheckMatch(q, cs)
}

// CheckAugment runs oracle 6: augmentation through the precompiled chase
// plan agrees exactly with the per-call chase. The comparison is strict
// structural identity — stronger than isomorphism — because the plan
// path promises to reproduce the oracle's output verbatim: same child
// order, same witnesses, same own and added types, same edges. cs may be
// nil.
func CheckAugment(q *pattern.Pattern, cs *ics.Set) *Failure {
	if q == nil || q.Validate() != nil {
		return nil
	}
	if cs == nil {
		cs = ics.NewSet()
	}
	closed := cs.Closure()

	ref := q.Clone()
	marks := oracle.Augment(ref, closed)
	refAdded := len(marks.Nodes)

	pl := chase.PlanFor(closed)
	s, gotAdded := pl.Augment(q, nil)
	defer s.Release()

	if refAdded != gotAdded {
		return fail(q, cs, "augment", "per-call chase added %d nodes, plan added %d", refAdded, gotAdded)
	}
	if refDump, gotDump := oracle.RenderMarked(ref, marks), oracle.RenderLayout(s); refDump != gotDump {
		return fail(q, cs, "augment", "augmented queries differ:\n  per-call: %s\n  plan:     %s", refDump, gotDump)
	}

	// The wanted-witness relation must match too: ContainedUnder filters
	// constraints through it.
	base := q.TypeSet()
	if refWanted, gotWanted := chase.WantedWitnessTypes(closed, base), pl.Wanted(base); !maps.Equal(refWanted, gotWanted) {
		return fail(q, cs, "augment", "wanted sets differ: per-call %v, plan %v", refWanted, gotWanted)
	}
	return nil
}

// CheckMinimize runs oracles 1-4: equivalence, minimality, pipeline
// agreement and kernel identity. cs may be nil.
func CheckMinimize(q *pattern.Pattern, cs *ics.Set) *Failure {
	if q == nil || q.Validate() != nil {
		return nil // only well-formed queries are in scope
	}
	if cs == nil {
		cs = ics.NewSet()
	}
	closed := cs.Closure()

	// Reference run: ACIM alone, production kernels.
	out, _ := acim.MinimizeWithStats(q, closed)

	// Structural sanity: the output must be a well-formed query.
	if err := out.Validate(); err != nil {
		return fail(q, cs, "equivalence", "minimized output is invalid: %v", err)
	}

	// Oracle 1a: the output is equivalent to the input under the
	// constraints.
	if !acim.EquivalentUnder(q, out, closed) {
		return fail(q, cs, "equivalence", "minimized output %s is not equivalent to the input", out)
	}

	// Oracle 1b: the CDM pre-filter on its own is sound (Theorem 5.2).
	pre := cdm.Minimize(q, closed)
	if !acim.EquivalentUnder(q, pre, closed) {
		return fail(q, cs, "equivalence", "CDM output %s is not equivalent to the input", pre)
	}

	// Oracle 3a: CDM-then-ACIM agrees with ACIM alone (Theorem 5.3).
	both := acim.Minimize(pre, closed)
	if !pattern.Isomorphic(out, both) {
		return fail(q, cs, "agreement", "CDM+ACIM produced %s, ACIM alone produced %s", both, out)
	}

	// Oracle 3b: CIM's result is independent of the elimination order
	// (Theorem 4.1). Reverse the preference among candidate leaves.
	// Uniqueness is up to type-set isomorphism: either of two mutually
	// redundant twins may survive, each spelling the same type set with a
	// different primary/extra split (t0{t2} vs t2{t0}), so both sides are
	// normalized before comparing.
	reversed := q.Clone()
	order := make(map[*pattern.Node]int)
	rank := 0
	reversed.Walk(func(n *pattern.Node) { order[n] = -rank; rank++ })
	cim.MinimizeInPlace(reversed, cim.Options{Order: order})
	forward := cim.Minimize(q)
	if !pattern.Isomorphic(normalizeTypeRepr(forward), normalizeTypeRepr(reversed)) {
		return fail(q, cs, "agreement", "CIM order-dependence: forward %s vs reversed %s", forward, reversed)
	}

	// Oracle 4a: the incremental CIM engine is byte-identical to the
	// nested-map reference through the whole ACIM pipeline.
	mapOut, _ := oracle.MinimizeACIMMap(q, closed)
	if out.Canonical() != mapOut.Canonical() {
		return fail(q, cs, "kernel", "incremental ACIM produced %s, map-tables ACIM produced %s", out, mapOut)
	}

	// Oracle 4b: the dense containment-mapping kernel agrees with the map
	// reference in both directions between input and output, and any
	// witness mapping verifies.
	for _, pair := range [][2]*pattern.Pattern{{q, out}, {out, q}} {
		a, b := pair[0], pair[1]
		dense := containment.FindMapping(a, b)
		mapped := oracle.FindMappingMap(a, b)
		if (dense != nil) != (mapped != nil) {
			return fail(q, cs, "kernel", "FindMapping(%s, %s): dense found=%v, map found=%v",
				a, b, dense != nil, mapped != nil)
		}
		if dense != nil && !containment.Verify(a, b, dense) {
			return fail(q, cs, "kernel", "dense FindMapping(%s, %s) returned an invalid witness", a, b)
		}
		if mapped != nil && !containment.Verify(a, b, mapped) {
			return fail(q, cs, "kernel", "map FindMappingMap(%s, %s) returned an invalid witness", a, b)
		}
	}

	// Oracle 2: true minimality — no single leaf of the output is
	// removable without breaking equivalence. (Removing any redundant
	// subtree is equivalent iff removing one of its leaves is: the trimmed
	// queries are nested by containment.)
	var leaves []*pattern.Node
	out.Walk(func(n *pattern.Node) {
		if n.IsLeaf() && !n.Star && n.Parent != nil {
			leaves = append(leaves, n)
		}
	})
	for _, l := range leaves {
		trimmed, m := out.CloneMap()
		m[l].Detach()
		if acim.EquivalentUnder(out, trimmed, closed) {
			return fail(q, cs, "minimality", "leaf %q of output %s is still redundant (trimmed: %s)",
				l.Type, out, trimmed)
		}
	}
	return nil
}

// normalizeTypeRepr returns a clone of p in which every node's primary
// type is the lexicographically smallest member of its type set, with the
// rest in Extra. The primary/extra split is parse syntax, not semantics —
// a node matches data carrying all of its types regardless of spelling —
// so oracles comparing two independently minimized results must ignore
// it.
func normalizeTypeRepr(p *pattern.Pattern) *pattern.Pattern {
	out := p.Clone()
	out.Walk(func(n *pattern.Node) {
		if len(n.Extra) == 0 {
			return
		}
		ts := n.Types()
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		n.Type = ts[0]
		n.Extra = ts[1:]
	})
	return out
}

// CheckService runs oracle 5: the serving layer returns results identical
// to a direct engine run on the cold path, the hot (cached) path, the
// cache-disabled path, and a duplicate-heavy batch, with consistent
// report flags. cs may be nil.
func CheckService(q *pattern.Pattern, cs *ics.Set) *Failure {
	if q == nil || q.Validate() != nil {
		return nil
	}
	if cs == nil {
		cs = ics.NewSet()
	}
	ctx := context.Background()

	eng := engine.New(engine.Options{Constraints: cs})
	r, err := eng.MinimizeContextTraced(ctx, q, nil)
	if err != nil {
		return fail(q, cs, "service", "direct engine: unexpected error %v", err)
	}
	want := r.Output
	wantUnsat := oracle.UnsatisfiableUnder(q, eng.Closed())

	check := func(label string, got *pattern.Pattern, rep service.Report, err error) *Failure {
		if err != nil {
			return fail(q, cs, "service", "%s: unexpected error %v", label, err)
		}
		if !pattern.Isomorphic(got, want) {
			return fail(q, cs, "service", "%s: served %s, direct engine %s", label, got, want)
		}
		if rep.Unsatisfiable != wantUnsat {
			return fail(q, cs, "service", "%s: Unsatisfiable=%v, direct check %v", label, rep.Unsatisfiable, wantUnsat)
		}
		if rep.OutputSize != got.Size() {
			return fail(q, cs, "service", "%s: OutputSize=%d, actual %d", label, rep.OutputSize, got.Size())
		}
		return nil
	}

	svc := service.New(service.Options{Constraints: cs, Workers: 2})
	cold, coldRep, err := svc.Minimize(ctx, q)
	if f := check("cold", cold, coldRep, err); f != nil {
		return f
	}
	if coldRep.CacheHit {
		return fail(q, cs, "service", "cold request reported CacheHit")
	}
	// An isomorphic clone must hit the canonical-form cache.
	hot, hotRep, err := svc.Minimize(ctx, q.Clone())
	if f := check("hot", hot, hotRep, err); f != nil {
		return f
	}
	if !hotRep.CacheHit {
		return fail(q, cs, "service", "repeat request missed the cache")
	}

	nocache := service.New(service.Options{Constraints: cs, Workers: 2, CacheSize: -1})
	direct, directRep, err := nocache.Minimize(ctx, q)
	if f := check("nocache", direct, directRep, err); f != nil {
		return f
	}
	if directRep.CacheHit {
		return fail(q, cs, "service", "cache-disabled request reported CacheHit")
	}

	// A duplicate-heavy batch: every element must minimize identically.
	outs, reps, err := svc.MinimizeBatch(ctx, []*pattern.Pattern{q, q.Clone(), q})
	if err != nil {
		return fail(q, cs, "service", "batch: unexpected error %v", err)
	}
	for i, got := range outs {
		if f := check(fmt.Sprintf("batch[%d]", i), got, reps[i], nil); f != nil {
			return f
		}
	}
	return nil
}

// CheckStore runs oracle 8: the persistent tier is transparent. A query
// minimized through a store-backed service, drained to disk, and served
// again by a *fresh* service over the same files must come back as a
// tier hit (no recomputation) with a canonical form byte-identical to a
// freshly computed minimization, and with the same report. cs may be
// nil.
func CheckStore(q *pattern.Pattern, cs *ics.Set) *Failure {
	if q == nil || q.Validate() != nil {
		return nil
	}
	if cs == nil {
		cs = ics.NewSet()
	}
	ctx := context.Background()

	// The ground truth the reloaded entry must be byte-identical to.
	r, err := engine.New(engine.Options{Constraints: cs}).MinimizeContextTraced(ctx, q, nil)
	if err != nil {
		return fail(q, cs, "store", "direct engine: unexpected error %v", err)
	}
	fresh := r.Output

	dir, err := os.MkdirTemp("", "difffuzz-store-")
	if err != nil {
		return fail(q, cs, "store", "creating store dir: %v", err)
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fail(q, cs, "store", "opening store: %v", err)
	}
	writer := service.New(service.Options{Constraints: cs, Workers: 1, Store: st})
	cold, coldRep, err := writer.Minimize(ctx, q)
	if err != nil {
		st.Close()
		return fail(q, cs, "store", "writing run: unexpected error %v", err)
	}
	// Close drains the write-behind queue; only then is the entry on disk.
	if err := writer.Close(ctx); err != nil {
		st.Close()
		return fail(q, cs, "store", "draining write-behind: %v", err)
	}
	if err := st.Close(); err != nil {
		return fail(q, cs, "store", "closing store: %v", err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		return fail(q, cs, "store", "reopening store: %v", err)
	}
	defer st2.Close()
	reader := service.New(service.Options{Constraints: cs, Workers: 1, Store: st2, WarmStart: 0})
	defer reader.Close(ctx)
	reloaded, rep, err := reader.Minimize(ctx, q.Clone())
	if err != nil {
		return fail(q, cs, "store", "reloaded run: unexpected error %v", err)
	}
	if !rep.CacheHit {
		return fail(q, cs, "store", "reloaded entry was not served as a tier hit")
	}
	if n := reader.Stats().Minimizations; n != 0 {
		return fail(q, cs, "store", "reloaded service recomputed (%d minimizations)", n)
	}
	if got, want := reloaded.Canonical(), fresh.Canonical(); got != want {
		return fail(q, cs, "store", "persisted entry %q differs from freshly computed %q", got, want)
	}
	if got, want := reloaded.Canonical(), cold.Canonical(); got != want {
		return fail(q, cs, "store", "persisted entry %q differs from the entry written %q", got, want)
	}
	wantRep := coldRep
	wantRep.CacheHit = true
	if rep != wantRep {
		return fail(q, cs, "store", "reloaded report %+v differs from computing report %+v", rep, wantRep)
	}
	return nil
}

// CheckMatch runs oracle 7: the evaluation kernels agree with the literal
// embedding definition. On the query's canonical database and on a
// generated forest over the query's alphabet, the twig engine
// (match/stream) must return exactly the answer set of
// oracle.BindingsMap, which shares no code with it, and count it
// exactly: Count is what a /match reply without answers returns. The streamed
// embedding enumeration and the compiled query's embedding count
// (stream.Query.CountEmbeddings) must agree with
// oracle.CountEmbeddingsMap, and the enumeration must bind the output
// node to exactly the answer set. cs may be nil —
// matching is constraint-independent, but a generated forest repaired to
// satisfy cs exercises denser candidate lists.
func CheckMatch(q *pattern.Pattern, cs *ics.Set) *Failure {
	if q == nil || q.Validate() != nil {
		return nil
	}
	canon, _ := data.Canonical(q, 1)
	forests := []*data.Forest{canon}
	var types []pattern.Type
	for t := range q.TypeSet() {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	if len(types) > 0 {
		rng := rand.New(rand.NewSource(int64(q.Size())*7919 + int64(len(types))))
		f, err := data.Generate(rng, data.GenOptions{Size: 40, Types: types, Constraints: cs})
		if err != nil {
			// Requirement cycles make cs unsatisfiable by finite trees;
			// fall back to an unconstrained forest.
			f, err = data.Generate(rng, data.GenOptions{Size: 40, Types: types})
		}
		if err == nil {
			forests = append(forests, f)
		}
	}
	const embedCap = 2000
	ctx := context.Background()
	for fi, f := range forests {
		want := oracle.BindingsMap(q, f)[q.OutputNode()]
		idx := match.NewForestIndex(f)
		sq, err := stream.Compile(q, idx, stream.Options{})
		if err != nil {
			return fail(q, cs, "match", "forest %d: stream compile: %v", fi, err)
		}
		var streamed []*data.Node
		for v := range sq.Answers(ctx) {
			streamed = append(streamed, v)
		}
		if !sameNodeLists(want, streamed) {
			return fail(q, cs, "match", "forest %d: reference found %d answers, streaming %d",
				fi, len(want), len(streamed))
		}
		if got := sq.Count(ctx); got != len(want) {
			return fail(q, cs, "match", "forest %d: reference found %d answers, Count says %d",
				fi, len(want), got)
		}

		wantCount := oracle.CountEmbeddingsMap(q, f)
		if got := sq.CountEmbeddings(ctx); got.Cmp(wantCount) != 0 {
			return fail(q, cs, "match", "forest %d: CountEmbeddings says %s embeddings, reference %s",
				fi, got, wantCount)
		}
		images := make(map[*data.Node]bool)
		n, complete := 0, true
		for e := range sq.Embeddings(ctx) {
			images[e.Answer()] = true
			if n++; n >= embedCap {
				complete = false
				break
			}
		}
		if complete {
			if wantCount.Cmp(big.NewInt(int64(n))) != 0 {
				return fail(q, cs, "match", "forest %d: enumerated %d embeddings, reference counts %s",
					fi, n, wantCount)
			}
			if len(images) != len(want) {
				return fail(q, cs, "match", "forest %d: embeddings bind the output to %d nodes, answer set has %d",
					fi, len(images), len(want))
			}
		} else if wantCount.Cmp(big.NewInt(embedCap)) < 0 {
			return fail(q, cs, "match", "forest %d: enumerated %d embeddings, reference counts only %s",
				fi, embedCap, wantCount)
		}
	}
	return nil
}

// sameNodeLists reports whether two answer slices are identical node for
// node (both engines promise document order).
func sameNodeLists(a, b []*data.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
