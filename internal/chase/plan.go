package chase

// This file implements precompiled chase plans: everything augmentation
// derives from a closed constraint set alone — the trigger relation
// behind WantedWitnessTypes, the per-type witness-target tables with
// descendant-coverage candidates, and the witness-chain shape — is
// compiled once into a Plan, and everything that additionally depends on
// the query's type set is specialized once per type-set shape into an
// Instance and cached. Augmenting a query through a plan is then
// proportional to the query and the nodes added: no closure probing, no
// sorting, no per-call template rebuild, and witness chains are
// instantiated out of batch-allocated arenas instead of one NewNode call
// per witness.
//
// The per-call chase (internal/oracle's Augment) is the reference: the
// difffuzz harness asserts plan-based augmentation produces the identical
// pattern, node for node.
//
// Correctness of the per-type specialization rests on a closure-folding
// property: on a closed set, a ~ b together with b -> c (or b => c)
// implies a -> c (a => c), so the targets of a witness's co-occurrence
// types are already among the targets of its primary type. A fresh
// witness therefore spawns exactly its primary type's targets, which is
// what lets the chain below a witness be compiled per type. Real query
// nodes whose extra types were all added by this augmentation's
// co-occurrence step enjoy the same folding; nodes carrying user-written
// extra types fall back to the shared WitnessTargets kernel, so the
// plan path never diverges from the reference.

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"tpq/internal/bitset"
	"tpq/internal/ics"
	"tpq/internal/lru"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// Plan is the compiled augmentation artifact of one closed constraint
// set. Compile it with Compile or fetch it from a Registry; a Plan is
// immutable apart from its internal instance cache and safe for
// concurrent use.
type Plan struct {
	cs          *ics.Set
	deep        bool
	fingerprint string
	setTypes    []pattern.Type
	// typeID numbers setTypes densely: the symbols 0..k-1 of the engine's
	// alphabet (scratch.go numbers a query's other types above them).
	typeID map[pattern.Type]int32
	rules  []typeRules // by symbol
	unsat  *unsatRows  // nil without forbidden forms
	// triggeredBy inverts the trigger relation of WantedWitnessTypes:
	// triggeredBy[x] lists the types b whose witnesses become wanted when
	// x occurs in the query — b itself, sources reaching x through
	// co-occurrence, and (on acyclic-required sets) sources whose
	// required-edge chains lead to such a type. A query's wanted set is
	// then the union of triggeredBy over its types: O(query + output)
	// instead of a fresh fixpoint per call.
	triggeredBy map[pattern.Type][]pattern.Type
	// descOnly[t] is DescTargets(t) minus ChildTargets(t) (order kept):
	// on a closed set a -> b implies a => b, so these are the only types
	// that can become descendant witnesses at a node of type t.
	descOnly map[pattern.Type][]pattern.Type
	// coverers[t][d] lists the other witness targets of t that require d
	// below themselves — the candidates of WitnessTargets' coverage
	// pruning, precomputed so specialization only has to check which
	// candidate is wanted. Built only when chains are grown (deep).
	coverers map[pattern.Type]map[pattern.Type][]pattern.Type

	mu sync.Mutex
	// inst caches instances by the bytes of the query's set-type row.
	inst *lru.Cache[*Instance]
}

// instanceCacheCap bounds the per-plan cache of type-set
// specializations: one entry per distinct query type-set shape, which a
// serving workload repeats heavily.
const instanceCacheCap = 32

// Compile builds the plan for cs. cs need not be closed — an unclosed
// set is closed first — but hot callers should pass a closed set so the
// closure is shared.
func Compile(cs *ics.Set) *Plan {
	if cs == nil {
		cs = ics.NewSet()
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	setTypes := cs.Types()
	pl := &Plan{
		cs:          cs,
		deep:        cs.AcyclicRequired(),
		fingerprint: cs.Fingerprint(),
		setTypes:    setTypes,
		typeID:      make(map[pattern.Type]int32, len(setTypes)),
		triggeredBy: make(map[pattern.Type][]pattern.Type, len(setTypes)),
		descOnly:    make(map[pattern.Type][]pattern.Type),
		inst:        lru.New[*Instance](instanceCacheCap),
	}
	for i, t := range setTypes {
		pl.typeID[t] = int32(i)
	}
	pl.rules = make([]typeRules, len(setTypes))
	syms := func(ts []pattern.Type) []int32 {
		out := make([]int32, len(ts))
		for i, t := range ts {
			out[i] = pl.typeID[t]
		}
		return out
	}
	for i, t := range setTypes {
		r := &pl.rules[i]
		if co := cs.CoTargets(t); len(co) > 0 {
			r.co = bitset.New(len(setTypes))
			for _, b := range syms(co) {
				r.co.Add(int(b))
			}
		}
		r.childT, r.descT = syms(cs.ChildTargets(t)), syms(cs.DescTargets(t))
		r.coSrc, r.descSrc = syms(cs.CoSources(t)), syms(cs.DescSources(t))
	}
	for _, t := range setTypes {
		var dOnly []pattern.Type
		for _, d := range cs.DescTargets(t) {
			if !cs.HasChild(t, d) {
				dOnly = append(dOnly, d)
			}
		}
		if len(dOnly) > 0 {
			pl.descOnly[t] = dOnly
		}
	}
	if pl.deep {
		pl.coverers = make(map[pattern.Type]map[pattern.Type][]pattern.Type)
		for _, t := range setTypes {
			dOnly := pl.descOnly[t]
			if len(dOnly) == 0 {
				continue
			}
			cand := make([]pattern.Type, 0, len(cs.ChildTargets(t))+len(dOnly))
			cand = append(cand, cs.ChildTargets(t)...)
			cand = append(cand, dOnly...)
			m := make(map[pattern.Type][]pattern.Type)
			for _, d := range dOnly {
				var cov []pattern.Type
				for _, b := range cand {
					if b != d && (cs.HasChild(b, d) || cs.HasDesc(b, d)) {
						cov = append(cov, b)
					}
				}
				if len(cov) > 0 {
					m[d] = cov
				}
			}
			if len(m) > 0 {
				pl.coverers[t] = m
			}
		}
	}
	pl.compileTriggers()
	pl.unsat = compileUnsat(cs, setTypes, pl.typeID)
	return pl
}

// typeRules are the relations of one set type that the CDM minimization
// rules (Figure 6) read, over the plan alphabet: the co-occurrence
// targets as a bit row (nil when there are none), and the target and
// source lists in the closed set's sorted order, which is ascending
// symbol order. A symbol above the set's range has no rules: its type is
// in no constraint.
type typeRules struct {
	co                            bitset.Set
	childT, descT, coSrc, descSrc []int32
}

var noRules typeRules

func (pl *Plan) rulesOf(s int32) *typeRules {
	if int(s) < len(pl.rules) {
		return &pl.rules[s]
	}
	return &noRules
}

// HasCo reports b ~ t on symbols (true when b == t).
func (pl *Plan) HasCo(b, t int32) bool {
	co := pl.rulesOf(b).co
	return b == t || co != nil && int(t) < len(pl.rules) && co.Has(int(t))
}

// ChildTargets returns the symbols b with s -> b.
func (pl *Plan) ChildTargets(s int32) []int32 { return pl.rulesOf(s).childT }

// DescTargets returns the symbols b with s => b.
func (pl *Plan) DescTargets(s int32) []int32 { return pl.rulesOf(s).descT }

// CoSources returns the symbols u with u ~ s.
func (pl *Plan) CoSources(s int32) []int32 { return pl.rulesOf(s).coSrc }

// DescSources returns the symbols u with u => s.
func (pl *Plan) DescSources(s int32) []int32 { return pl.rulesOf(s).descSrc }

// compileTriggers computes triggeredBy. triggers(b) — the set of query
// types whose presence makes b's witnesses wanted — is b itself, b's
// co-occurrence targets, and (deep) the triggers of every type b
// requires; the recursion is memoized over the required-edge DAG. The
// building guard mirrors the visiting state of WantedWitnessTypes and is
// unreachable when chains are grown (deep implies acyclic).
func (pl *Plan) compileTriggers() {
	cs := pl.cs
	memo := make(map[pattern.Type]map[pattern.Type]bool, len(pl.setTypes))
	building := make(map[pattern.Type]bool)
	var trig func(b pattern.Type) map[pattern.Type]bool
	trig = func(b pattern.Type) map[pattern.Type]bool {
		if s, ok := memo[b]; ok {
			return s
		}
		if building[b] {
			return nil
		}
		building[b] = true
		s := map[pattern.Type]bool{b: true}
		for _, t := range cs.CoTargets(b) {
			s[t] = true
		}
		if pl.deep {
			for _, t := range cs.ChildTargets(b) {
				for x := range trig(t) {
					s[x] = true
				}
			}
			for _, t := range cs.DescTargets(b) {
				for x := range trig(t) {
					s[x] = true
				}
			}
		}
		delete(building, b)
		memo[b] = s
		return s
	}
	for _, b := range pl.setTypes {
		for x := range trig(b) {
			pl.triggeredBy[x] = append(pl.triggeredBy[x], b)
		}
	}
}

// Fingerprint returns the fingerprint of the closed constraint set the
// plan was compiled from — the registry key.
func (pl *Plan) Fingerprint() string { return pl.fingerprint }

// Constraints returns the closed constraint set the plan was compiled
// from. Callers must not mutate it.
func (pl *Plan) Constraints() *ics.Set { return pl.cs }

// Wanted returns the same map WantedWitnessTypes computes for base, via
// the precompiled trigger relation and the instance cache: every base
// type plus every set type whose witnesses can matter for a containment
// mapping from a query drawn from base.
func (pl *Plan) Wanted(base map[pattern.Type]bool) map[pattern.Type]bool {
	in := pl.Specialize(base)
	out := make(map[pattern.Type]bool, len(base)+len(in.wanted))
	for t := range base {
		out[t] = true
	}
	for t := range in.wanted {
		out[t] = true
	}
	return out
}

// Augment applies the restricted chase of §5.2 to p in place under the
// plan's constraint set, marking every added node and type association
// temporary, and returns the number of nodes added. The query types are
// those of its permanent nodes, without the temporary ones, so
// re-augmenting an augmented query adds nothing.
func (pl *Plan) Augment(p *pattern.Pattern) int {
	return pl.AugmentTraced(p, nil)
}

// AugmentTraced is Augment recording the chase into tr: the elapsed time
// under the Chase phase and the witness count under the Augmented
// counter. tr may be nil.
func (pl *Plan) AugmentTraced(p *pattern.Pattern, tr *trace.Trace) int {
	sp := tr.Start(trace.Chase)
	added := pl.augment(p)
	sp.End()
	tr.Add(trace.Augmented, added)
	return added
}

func (pl *Plan) augment(p *pattern.Pattern) int {
	if p == nil || p.Root == nil {
		return 0
	}
	// The flattened query lists the nodes to visit before any witness is
	// attached, and its symbols give the set-type row that keys the
	// instance and each node's primary symbol. Only permanent types of
	// permanent nodes count, so an earlier pass's witnesses add nothing.
	s := GetScratch(pl)
	defer s.Release()
	s.Flatten(p)
	k := int32(len(pl.setTypes))
	row := bitset.Set(s.Words(bitset.WordsFor(int(k))))
	for i, n := range s.Nodes {
		for j, t := range s.Syms(i) {
			if t < k && !n.Temp && (j == 0 || !slices.Contains(n.TempExtra, n.Extra[j-1])) {
				row.Add(int(t))
			}
		}
	}
	in := pl.instance(row)
	added := 0
	for i, n := range s.Nodes {
		if n.Temp {
			continue
		}
		// A node whose extra types all come from this pass's co-occurrence
		// step spawns exactly its primary type's targets (closure folding);
		// pre-existing extras — user-written or from an earlier
		// augmentation — route through the shared kernel instead.
		single := len(n.Extra) == 0
		for _, t := range n.Types() {
			for _, b := range pl.cs.CoTargets(t) {
				if in.base[b] {
					n.AddType(b, true)
				}
			}
		}
		targets := in.specAt(s.Syms(i)[0]).children
		if !single {
			targets = in.targets(WitnessTargets(pl.cs, n.Types(), in.wanted, pl.deep))
		}
		if len(targets) > 0 {
			added += in.attach(n, targets)
		}
	}
	return added
}

// Specialize returns the plan's instance for the given query type set,
// compiling and caching it on first use. Instances are immutable and
// safe for concurrent use; the cache key is the type set restricted to
// the constraint set's types, so queries differing only in types the
// constraints never mention share an instance.
func (pl *Plan) Specialize(base map[pattern.Type]bool) *Instance {
	row := bitset.New(len(pl.setTypes))
	for t := range base {
		if id, ok := pl.typeID[t]; ok {
			row.Add(int(id))
		}
	}
	return pl.instance(row)
}

// instance returns the instance of a query's set-type row, keyed by the
// row's bytes.
func (pl *Plan) instance(row bitset.Set) *Instance {
	var buf [64]byte
	key := buf[:0]
	for _, w := range row {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	pl.mu.Lock()
	in, ok := pl.inst.GetBytes(key)
	pl.mu.Unlock()
	if ok {
		return in
	}

	rest := make([]pattern.Type, 0, row.Count())
	for i := row.NextSet(0); i >= 0; i = row.NextSet(i + 1) {
		rest = append(rest, pl.setTypes[i])
	}
	in = pl.newInstance(rest)

	pl.mu.Lock()
	if won, ok := pl.inst.GetBytes(key); ok {
		// Lost a build race; adopt the published instance.
		in = won
	} else {
		pl.inst.Add(string(key), in)
	}
	pl.mu.Unlock()
	return in
}

// Instance is a plan specialized to one query type-set shape: the wanted
// set, and per type the witness targets and the fully resolved chain
// shape with arena sizes. Immutable after construction.
type Instance struct {
	plan   *Plan
	base   map[pattern.Type]bool // query types ∩ set types
	wanted map[pattern.Type]bool // restricted to set types
	spec   []*typeSpec           // by set symbol
}

// typeSpec is the per-type specialization: the witnesses a node of the
// type spawns and — when chains are grown — the chain below a fresh
// witness of the type, with precomputed node and extra-type counts for
// arena sizing.
type typeSpec struct {
	// children lists the wanted witness targets, child targets then
	// descendant targets (coverage-pruned when deep), mirroring the
	// instantiation order of the per-call chase (internal/oracle). When
	// chains are grown each carries the spec of the chain below it.
	children []chainChild
	extras   []pattern.Type // temporary co-occurrence types of a fresh witness
	// nodes and extrasTotal size the chain below one witness of the type:
	// nodes added and extra-type associations (excluding the witness's
	// own extras), so attach can arena-allocate in one batch.
	nodes       int
	extrasTotal int
}

var emptySpec = &typeSpec{}

// chainChild is one compiled witness edge: a node spawns a temporary
// child of this type over this edge kind, with sub continuing the chain
// below it (nil when chains are not grown).
type chainChild struct {
	edge pattern.EdgeKind
	typ  pattern.Type
	sub  *typeSpec
}

func (pl *Plan) newInstance(rest []pattern.Type) *Instance {
	in := &Instance{
		plan:   pl,
		base:   make(map[pattern.Type]bool, len(rest)),
		wanted: make(map[pattern.Type]bool, len(rest)),
		spec:   make([]*typeSpec, len(pl.setTypes)),
	}
	for _, t := range rest {
		in.base[t] = true
	}
	for _, x := range rest {
		for _, b := range pl.triggeredBy[x] {
			in.wanted[b] = true
		}
	}
	cs := pl.cs
	building := make(map[pattern.Type]bool)
	var build func(t pattern.Type) *typeSpec
	build = func(t pattern.Type) *typeSpec {
		if s := in.spec[pl.typeID[t]]; s != nil {
			return s
		}
		if building[t] {
			return nil // required-edge cycle: unreachable when deep
		}
		building[t] = true
		s := &typeSpec{}
		for _, b := range cs.ChildTargets(t) {
			if in.wanted[b] {
				s.children = append(s.children, chainChild{edge: pattern.Child, typ: b})
			}
		}
		for _, d := range pl.descOnly[t] {
			if !in.wanted[d] {
				continue
			}
			if pl.deep {
				covered := false
				for _, b := range pl.coverers[t][d] {
					if in.wanted[b] {
						covered = true
						break
					}
				}
				if covered {
					continue
				}
			}
			s.children = append(s.children, chainChild{edge: pattern.Descendant, typ: d})
		}
		if pl.deep {
			for _, b := range cs.CoTargets(t) {
				if in.base[b] {
					s.extras = append(s.extras, b)
				}
			}
			for i := range s.children {
				c := &s.children[i]
				c.sub = build(c.typ)
				s.nodes++
				if c.sub != nil {
					s.nodes += c.sub.nodes
					s.extrasTotal += len(c.sub.extras) + c.sub.extrasTotal
				}
			}
		}
		delete(building, t)
		in.spec[pl.typeID[t]] = s
		return s
	}
	for _, t := range pl.setTypes {
		build(t)
	}
	return in
}

// specAt returns the spec of a type by its symbol.
func (in *Instance) specAt(sym int32) *typeSpec {
	if int(sym) < len(in.spec) {
		return in.spec[sym]
	}
	return emptySpec
}

// targets lists the witnesses of a node whose targets WitnessTargets
// computed, each with its spec when chains are grown.
func (in *Instance) targets(childT, descT []pattern.Type) []chainChild {
	out := make([]chainChild, 0, len(childT)+len(descT))
	for i, b := range append(childT, descT...) {
		c := chainChild{edge: pattern.Child, typ: b}
		if i >= len(childT) {
			c.edge = pattern.Descendant
		}
		if in.plan.deep {
			c.sub = in.spec[in.plan.typeID[b]] // b is a set type
		}
		out = append(out, c)
	}
	return out
}

// attach creates the missing temporary witnesses for the given targets
// under n, instantiating each witness's chain from the compiled spec in
// one arena batch, and returns the number of nodes added. It keeps the
// chase idempotent: targets already witnessed by an existing temporary
// child are skipped (the scan runs only when n has
// temporary children at all — a freshly cloned query has none).
func (in *Instance) attach(n *pattern.Node, targets []chainChild) int {
	for _, c := range n.Children {
		if c.Temp {
			targets = unwitnessed(n, targets)
			break
		}
	}
	if len(targets) == 0 {
		return 0
	}

	var nNodes, nPtrs, nTypes int
	for _, tg := range targets {
		nNodes++
		if tg.sub != nil {
			nNodes += tg.sub.nodes
			nPtrs += tg.sub.nodes
			nTypes += len(tg.sub.extras) + tg.sub.extrasTotal
		}
	}
	ar := &arena{nodes: make([]pattern.Node, nNodes)}
	if nPtrs > 0 {
		ar.ptrs = make([]*pattern.Node, nPtrs)
	}
	if nTypes > 0 {
		ar.types = make([]pattern.Type, 2*nTypes)
	}

	added := 0
	for _, tg := range targets {
		w := &ar.nodes[ar.ni]
		ar.ni++
		w.Type, w.Temp, w.Edge, w.Parent = tg.typ, true, tg.edge, n
		n.Children = append(n.Children, w)
		added++
		if tg.sub != nil {
			added += ar.emit(w, tg.sub)
		}
	}
	return added
}

// unwitnessed returns the targets no temporary child of n witnesses yet.
func unwitnessed(n *pattern.Node, targets []chainChild) []chainChild {
	var out []chainChild
next:
	for _, tg := range targets {
		for _, c := range n.Children {
			if c.Temp && c.Type == tg.typ && c.Edge == tg.edge {
				continue next
			}
		}
		out = append(out, tg)
	}
	return out
}

// arena is the batch allocation backing one attach call: every chain
// node, child-pointer slot and extra-type cell comes out of three
// slices sized up front.
type arena struct {
	nodes      []pattern.Node
	ptrs       []*pattern.Node
	types      []pattern.Type
	ni, pi, ti int
}

// emit writes the chain below the fresh witness w from its spec and
// returns the nodes added. Extra and TempExtra get separate full-cap
// carvings of the shared type buffer: StripTemp filters Extra in place
// while reading TempExtra, and any later append must reallocate rather
// than clobber a sibling's cells.
func (ar *arena) emit(w *pattern.Node, sp *typeSpec) int {
	if m := len(sp.extras); m > 0 {
		ex := ar.types[ar.ti : ar.ti+m : ar.ti+m]
		te := ar.types[ar.ti+m : ar.ti+2*m : ar.ti+2*m]
		ar.ti += 2 * m
		copy(ex, sp.extras)
		copy(te, sp.extras)
		w.Extra, w.TempExtra = ex, te
	}
	if len(sp.children) == 0 {
		return 0
	}
	k := len(sp.children)
	kids := ar.ptrs[ar.pi : ar.pi+k : ar.pi+k]
	ar.pi += k
	w.Children = kids
	added := 0
	for i, c := range sp.children {
		cw := &ar.nodes[ar.ni]
		ar.ni++
		cw.Type, cw.Temp, cw.Edge, cw.Parent = c.typ, true, c.edge, w
		kids[i] = cw
		added++
		if c.sub != nil {
			added += ar.emit(cw, c.sub)
		}
	}
	return added
}

// Registry is a bounded, concurrency-safe LRU cache of compiled plans
// keyed by the closed constraint set's fingerprint. A fleet serving one
// schema compiles its plan exactly once; plans for retired schemas age
// out at capacity.
type Registry struct {
	mu    sync.Mutex // guards plans; held across compilation
	plans *lru.Cache[*Plan]

	compiled  atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
}

// NewRegistry returns a registry holding at most capacity plans
// (minimum 1).
func NewRegistry(capacity int) *Registry {
	return &Registry{plans: lru.New[*Plan](max(capacity, 1))}
}

// PlanFor returns the plan for cs, compiling and caching it on first
// use. cs is closed defensively if needed; compilation happens under the
// registry lock, so concurrent lookups of the same set compile once.
func (r *Registry) PlanFor(cs *ics.Set) *Plan {
	pl, _ := r.planFor(cs)
	return pl
}

func (r *Registry) planFor(cs *ics.Set) (pl *Plan, fresh bool) {
	if cs == nil {
		cs = ics.NewSet()
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	fp := cs.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if pl, ok := r.plans.Get(fp); ok {
		r.hits.Add(1)
		return pl, false
	}
	pl = Compile(cs)
	r.compiled.Add(1)
	r.evictions.Add(int64(r.plans.Add(fp, pl)))
	return pl, true
}

// RegistryStats is a point-in-time snapshot of a registry's counters.
type RegistryStats struct {
	Compiled  int64 // plans compiled (cache misses)
	Hits      int64 // lookups served from cache
	Evictions int64 // plans displaced by capacity
	Len       int   // plans currently cached
	Cap       int   // capacity
}

// Stats returns the registry's counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Compiled:  r.compiled.Load(),
		Hits:      r.hits.Load(),
		Evictions: r.evictions.Load(),
		Len:       r.plans.Len(),
		Cap:       r.plans.Cap(),
	}
}

// DefaultRegistry is the process-wide plan registry used by the
// minimization pipeline and the serving layer.
var DefaultRegistry = NewRegistry(64)

// PlanFor fetches cs's plan from the default registry.
func PlanFor(cs *ics.Set) *Plan { return DefaultRegistry.PlanFor(cs) }

// PlanForTraced is PlanFor recording the lookup outcome into tr: one
// PlansCompiled count on a miss, one PlanHits count on a hit. tr may be
// nil.
func PlanForTraced(cs *ics.Set, tr *trace.Trace) *Plan {
	pl, fresh := DefaultRegistry.planFor(cs)
	if fresh {
		tr.Add(trace.PlansCompiled, 1)
	} else {
		tr.Add(trace.PlanHits, 1)
	}
	return pl
}
