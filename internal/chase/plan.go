package chase

// This file implements precompiled chase plans: everything augmentation
// derives from a closed constraint set alone — the trigger relation
// behind WantedWitnessTypes, the per-type witness-target tables with
// descendant-coverage candidates, and the witness-chain shape — is
// compiled once into a Plan, and everything that additionally depends on
// the query's type set is specialized once per type-set shape into an
// Instance and cached. An instance holds, per type, the witnesses a node
// of the type spawns as one flat template in preorder, so augmenting a
// flattened query is one pass that copies templates into the layout: no
// closure probing, no sorting, no per-call template rebuild, and no
// pattern node per witness.
//
// The per-call chase (internal/oracle's Augment) is the reference: the
// difffuzz harness asserts plan-based augmentation produces the identical
// augmented query, node for node.
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

// Augment lays p out in a pooled scratch numbered by the plan's alphabet
// and augments the layout (Scratch.Augment); p itself is left as it is.
// The caller reads the augmented query from the scratch and releases
// it. Augment also returns the number of witnesses added; tr may be nil.
func (pl *Plan) Augment(p *pattern.Pattern, tr *trace.Trace) (*Scratch, int) {
	s := GetScratch(pl)
	s.Flatten(p)
	return s, s.Augment(tr)
}

// Augment applies the restricted chase of §5.2, under the constraint set
// of the plan s was taken for, to the query flattened in s, and returns
// the number of witnesses it added. It rewrites the layout: every live
// ordinal in preorder, each followed — after its permanent subtree — by
// the witnesses the chase hangs under it, child targets then descendant
// targets with each chain depth-first, the order of the per-call chase.
// An ordinal whose node has been detached (CDM deletes leaves in place)
// is dead and dropped. The query's types are the own symbols of the live
// ordinals; the layout must not be augmented yet. It records the time
// under tr's Chase phase and the witnesses under its Augmented counter;
// tr may be nil.
func (s *Scratch) Augment(tr *trace.Trace) int {
	sp := tr.Start(trace.Chase)
	added := s.augment()
	sp.End()
	tr.Add(trace.Augmented, added)
	return added
}

func (s *Scratch) augment() int {
	pl, n := s.plan, len(s.Nodes)
	if pl == nil || n == 0 {
		return 0
	}
	// The live own symbols give the set-type row that keys the instance.
	kw := bitset.WordsFor(len(pl.setTypes))
	words := s.Words(2 * kw)
	base, row := bitset.Set(words[:kw]), bitset.Set(words[kw:])
	for i := range n {
		if s.live(i) {
			for _, t := range s.Own(i) {
				if int(t) < len(pl.setTypes) {
					base.Add(int(t))
				}
			}
		}
	}
	in := pl.instance(base)

	// Pick each live ordinal's witnesses, counting the new layout's size.
	// A node whose extra types all come from this pass's co-occurrence
	// step spawns exactly its primary type's targets (closure folding);
	// user-written extras route through the shared kernel instead.
	s.tmpls = slices.Grow(s.tmpls[:0], n)[:n]
	live, size := 0, 0
	for i := range n {
		s.tmpls[i] = nil
		if !s.live(i) {
			continue
		}
		if own := s.Own(i); len(own) == 1 {
			s.tmpls[i] = in.specAt(own[0]).tmpl
		} else {
			s.tmpls[i] = in.fallback(s.Nodes[i], s.added(i, base, row))
		}
		live++
		size += 1 + len(s.tmpls[i])
	}

	out := &s.spare
	out.Resize(size)
	out.symOff, out.syms, out.own = out.symOff[:0], out.syms[:0], out.own[:0]
	s.write(0, -1, 0, base, row)
	out.symOff = append(out.symOff, int32(len(out.syms)))
	s.layout, s.spare = s.spare, s.layout
	return size - live
}

// live reports whether ordinal i's node is still in the pattern: the
// root, or a node with a parent.
func (s *Scratch) live(i int) bool { return i == 0 || s.Nodes[i].Parent != nil }

// added sets row to the symbols the chase associates with live ordinal
// i, and returns it: the co-occurrence targets of its own types that are
// query types (base) and not its own.
func (s *Scratch) added(i int, base, row bitset.Set) bitset.Set {
	clear(row)
	own := s.Own(i)
	for _, t := range own {
		if co := s.plan.rulesOf(t).co; co != nil {
			row.Or(co)
		}
	}
	row.And(base)
	for _, t := range own {
		if int(t) < len(s.plan.setTypes) {
			row.Remove(int(t))
		}
	}
	return row
}

// write writes the subtree of live ordinal i to the new layout from
// ordinal j on, below new ordinal parent: i with its own and added
// symbols, its live children's subtrees, then its witnesses. It returns
// the next free ordinal.
func (s *Scratch) write(i, parent, j int32, base, row bitset.Set) int32 {
	out, v := &s.spare, j
	up := int32(-1)
	if s.Up[i] >= 0 {
		up = parent
	}
	out.Nodes[v], out.Parent[v], out.Up[v], out.Kids[v] = s.Nodes[i], parent, up, 0
	if parent >= 0 {
		out.Kids[parent]++
	}
	own := s.Own(int(i))
	out.symOff, out.own = append(out.symOff, int32(len(out.syms))), append(out.own, int32(len(own)))
	out.syms = append(out.syms, own...)
	added := s.added(int(i), base, row)
	for b := added.NextSet(0); b >= 0; b = added.NextSet(b + 1) {
		out.syms = append(out.syms, int32(b))
	}
	j++
	for c := i + 1; c <= s.End[i]; c = s.End[c] + 1 {
		if s.live(int(c)) {
			j = s.write(c, v, j, base, row)
		}
	}
	j0 := j
	for _, w := range s.tmpls[i] {
		p, u := v, int32(-1)
		if w.parent >= 0 {
			p = j0 + w.parent
		}
		if w.child {
			u = p
		}
		out.Nodes[j], out.Parent[j], out.Up[j], out.End[j], out.Kids[j] = nil, p, u, j0+w.end, 0
		out.Kids[p]++
		out.symOff, out.own = append(out.symOff, int32(len(out.syms))), append(out.own, 0)
		out.syms = append(out.syms, w.syms...)
		j++
	}
	out.End[v] = j - 1
	return j
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
// set, and per wanted type the witness template. Immutable after
// construction.
type Instance struct {
	plan   *Plan
	base   map[pattern.Type]bool // query types ∩ set types
	wanted map[pattern.Type]bool // restricted to set types
	spec   []*typeSpec           // by set symbol, nil for a type not wanted
}

// typeSpec is the specialization of one wanted type: the symbols of a
// fresh witness of the type — its own, then, when chains are grown, its
// co-occurrence types among the query's — and tmpl, every witness a node
// of the type spawns in preorder: each wanted child target, then each
// wanted descendant target (coverage-pruned when deep), and when chains
// are grown the chain below each, the instantiation order of the
// per-call chase (internal/oracle).
type typeSpec struct {
	self []int32
	tmpl []witness
}

var emptySpec = &typeSpec{}

// witness is one witness of a template. Offsets count from the
// template's first witness; -1 is the node the template hangs under.
type witness struct {
	parent, end int32 // the parent's offset, the subtree's last offset
	child       bool  // a c-edge to the parent
	syms        []int32
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
	for _, t := range pl.setTypes {
		if in.wanted[t] {
			in.build(t)
		}
	}
	return in
}

// build returns the spec of wanted type t, compiling it — and the specs
// its chains splice in — on first use.
func (in *Instance) build(t pattern.Type) *typeSpec {
	pl := in.plan
	if s := in.spec[pl.typeID[t]]; s != nil {
		return s
	}
	s := &typeSpec{self: []int32{pl.typeID[t]}}
	in.spec[pl.typeID[t]] = s // a required-edge cycle stops here; none when deep
	if pl.deep {
		for _, b := range pl.cs.CoTargets(t) {
			if in.base[b] {
				s.self = append(s.self, pl.typeID[b])
			}
		}
	}
	for _, b := range pl.cs.ChildTargets(t) {
		if in.wanted[b] {
			s.tmpl = in.appendChain(s.tmpl, true, b)
		}
	}
next:
	for _, d := range pl.descOnly[t] {
		if !in.wanted[d] {
			continue
		}
		if pl.deep {
			for _, b := range pl.coverers[t][d] {
				if in.wanted[b] {
					continue next
				}
			}
		}
		s.tmpl = in.appendChain(s.tmpl, false, d)
	}
	return s
}

// appendChain appends to ws a witness of type b over a c-edge (child) or
// a d-edge and, when chains are grown, the chain below it, and returns
// ws.
func (in *Instance) appendChain(ws []witness, child bool, b pattern.Type) []witness {
	root := int32(len(ws))
	sub := in.build(b)
	ws = append(ws, witness{parent: -1, end: root, child: child, syms: sub.self})
	if !in.plan.deep {
		return ws
	}
	for _, w := range sub.tmpl {
		if w.parent < 0 {
			w.parent = root
		} else {
			w.parent += root + 1
		}
		w.end += root + 1
		ws = append(ws, w)
	}
	ws[root].end = int32(len(ws)) - 1
	return ws
}

// specAt returns the spec of a query type by its symbol.
func (in *Instance) specAt(sym int32) *typeSpec {
	if int(sym) < len(in.spec) && in.spec[sym] != nil {
		return in.spec[sym]
	}
	return emptySpec
}

// fallback builds the witness template of node n, which carries
// user-written extra types, from the shared WitnessTargets kernel over
// n's types plus the added ones (the symbols of added), in Types()
// order: that order decides the witnesses' order.
func (in *Instance) fallback(n *pattern.Node, added bitset.Set) []witness {
	extra := slices.Clone(n.Extra)
	for b := added.NextSet(0); b >= 0; b = added.NextSet(b + 1) {
		extra = append(extra, in.plan.setTypes[b])
	}
	slices.Sort(extra)
	childT, descT := WitnessTargets(in.plan.cs, append([]pattern.Type{n.Type}, extra...), in.wanted, in.plan.deep)
	var ws []witness
	for i, b := range append(childT, descT...) {
		ws = in.appendChain(ws, i < len(childT), b)
	}
	return ws
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
