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
	"container/list"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tpq/internal/ics"
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
	isSetType   map[pattern.Type]bool
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

	mu      sync.Mutex
	inst    map[string]*list.Element
	ll      *list.List
	instCap int
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
		isSetType:   make(map[pattern.Type]bool, len(setTypes)),
		triggeredBy: make(map[pattern.Type][]pattern.Type, len(setTypes)),
		descOnly:    make(map[pattern.Type][]pattern.Type),
		inst:        make(map[string]*list.Element),
		ll:          list.New(),
		instCap:     instanceCacheCap,
	}
	for _, t := range setTypes {
		pl.isSetType[t] = true
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
	return pl
}

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
// temporary, and returns the number of nodes added. Re-augmenting an
// augmented query adds nothing.
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
	in := pl.Specialize(p.TypeSet())
	added := 0
	for _, n := range p.Nodes() {
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
		var childT, descT []pattern.Type
		if single {
			s := in.specOf(n.Type)
			childT, descT = s.childT, s.descT
		} else {
			childT, descT = WitnessTargets(pl.cs, n.Types(), in.wanted, pl.deep)
		}
		if len(childT)+len(descT) > 0 {
			added += in.attach(n, childT, descT)
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
	rest := make([]pattern.Type, 0, len(base))
	for t := range base {
		if pl.isSetType[t] {
			rest = append(rest, t)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	var sb strings.Builder
	for i, t := range rest {
		if i > 0 {
			sb.WriteByte(0)
		}
		sb.WriteString(string(t))
	}
	key := sb.String()

	pl.mu.Lock()
	if el, ok := pl.inst[key]; ok {
		pl.ll.MoveToFront(el)
		in := el.Value.(*instItem).in
		pl.mu.Unlock()
		return in
	}
	pl.mu.Unlock()

	in := pl.newInstance(rest)

	pl.mu.Lock()
	if el, ok := pl.inst[key]; ok {
		// Lost a build race; adopt the published instance.
		pl.ll.MoveToFront(el)
		in = el.Value.(*instItem).in
	} else {
		pl.inst[key] = pl.ll.PushFront(&instItem{key: key, in: in})
		for pl.ll.Len() > pl.instCap {
			last := pl.ll.Back()
			pl.ll.Remove(last)
			delete(pl.inst, last.Value.(*instItem).key)
		}
	}
	pl.mu.Unlock()
	return in
}

type instItem struct {
	key string
	in  *Instance
}

// Instance is a plan specialized to one query type-set shape: the wanted
// set, and per type the witness targets and the fully resolved chain
// shape with arena sizes. Immutable after construction.
type Instance struct {
	plan   *Plan
	base   map[pattern.Type]bool // query types ∩ set types
	wanted map[pattern.Type]bool // restricted to set types
	spec   map[pattern.Type]*typeSpec
}

// typeSpec is the per-type specialization: the witness targets a node of
// the type spawns, and — when chains are grown — the chain below a fresh
// witness of the type, with precomputed node and extra-type counts for
// arena sizing.
type typeSpec struct {
	childT []pattern.Type // wanted child-witness targets
	descT  []pattern.Type // wanted descendant-witness targets, coverage-pruned when deep
	extras []pattern.Type // temporary co-occurrence types of a fresh witness
	// children is the resolved chain below a fresh witness of the type:
	// child targets then descendant targets, mirroring instantiation
	// order of the per-call chase (internal/oracle).
	children []chainChild
	// nodes and extrasTotal size the chain below one witness of the type:
	// nodes added and extra-type associations (excluding the witness's
	// own extras), so attach can arena-allocate in one batch.
	nodes       int
	extrasTotal int
}

var emptySpec = &typeSpec{}

// chainChild is one compiled witness-chain edge: a witness spawns a
// temporary child of this type over this edge kind, with sub continuing
// the chain.
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
		spec:   make(map[pattern.Type]*typeSpec, len(pl.setTypes)),
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
		if s, ok := in.spec[t]; ok {
			return s
		}
		if building[t] {
			return nil // required-edge cycle: unreachable when deep
		}
		building[t] = true
		s := &typeSpec{}
		for _, b := range cs.ChildTargets(t) {
			if in.wanted[b] {
				s.childT = append(s.childT, b)
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
			s.descT = append(s.descT, d)
		}
		if pl.deep {
			for _, b := range cs.CoTargets(t) {
				if in.base[b] {
					s.extras = append(s.extras, b)
				}
			}
			for _, b := range s.childT {
				s.children = append(s.children, chainChild{edge: pattern.Child, typ: b, sub: build(b)})
			}
			for _, b := range s.descT {
				s.children = append(s.children, chainChild{edge: pattern.Descendant, typ: b, sub: build(b)})
			}
			for _, c := range s.children {
				s.nodes++
				if c.sub != nil {
					s.nodes += c.sub.nodes
					s.extrasTotal += len(c.sub.extras) + c.sub.extrasTotal
				}
			}
		}
		delete(building, t)
		in.spec[t] = s
		return s
	}
	for _, t := range pl.setTypes {
		build(t)
	}
	return in
}

func (in *Instance) specOf(t pattern.Type) *typeSpec {
	if s, ok := in.spec[t]; ok {
		return s
	}
	return emptySpec
}

// newTarget is one witness to create at a real node during attach.
type newTarget struct {
	edge pattern.EdgeKind
	typ  pattern.Type
	sp   *typeSpec
}

// attach creates the missing temporary witnesses for the given targets
// under n, instantiating each witness's chain from the compiled spec in
// one arena batch, and returns the number of nodes added. It keeps the
// chase idempotent: targets already witnessed by an existing temporary
// child are skipped (the scan runs only when n has
// temporary children at all — a freshly cloned query has none).
func (in *Instance) attach(n *pattern.Node, childT, descT []pattern.Type) int {
	hasTemp := false
	for _, c := range n.Children {
		if c.Temp {
			hasTemp = true
			break
		}
	}
	targets := make([]newTarget, 0, len(childT)+len(descT))
	consider := func(edge pattern.EdgeKind, b pattern.Type) {
		if hasTemp {
			for _, c := range n.Children {
				if c.Temp && c.Type == b && c.Edge == edge {
					return
				}
			}
		}
		targets = append(targets, newTarget{edge: edge, typ: b, sp: in.specOf(b)})
	}
	for _, b := range childT {
		consider(pattern.Child, b)
	}
	for _, b := range descT {
		consider(pattern.Descendant, b)
	}
	if len(targets) == 0 {
		return 0
	}

	var nNodes, nPtrs, nTypes int
	for _, tg := range targets {
		nNodes += 1 + tg.sp.nodes
		nPtrs += tg.sp.nodes
		nTypes += len(tg.sp.extras) + tg.sp.extrasTotal
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
		if in.plan.deep {
			added += ar.emit(w, tg.sp)
		}
	}
	return added
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
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	compiled  atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
}

type regItem struct {
	key string
	pl  *Plan
}

// NewRegistry returns a registry holding at most capacity plans
// (minimum 1).
func NewRegistry(capacity int) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
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
	if el, ok := r.items[fp]; ok {
		r.ll.MoveToFront(el)
		r.hits.Add(1)
		return el.Value.(*regItem).pl, false
	}
	pl = Compile(cs)
	r.compiled.Add(1)
	r.items[fp] = r.ll.PushFront(&regItem{key: fp, pl: pl})
	for r.ll.Len() > r.capacity {
		last := r.ll.Back()
		r.ll.Remove(last)
		delete(r.items, last.Value.(*regItem).key)
		r.evictions.Add(1)
	}
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
	n := r.ll.Len()
	r.mu.Unlock()
	return RegistryStats{
		Compiled:  r.compiled.Load(),
		Hits:      r.hits.Load(),
		Evictions: r.evictions.Load(),
		Len:       n,
		Cap:       r.capacity,
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
