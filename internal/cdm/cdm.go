// Package cdm implements Algorithm CDM (Sections 5.4-5.5 of the paper):
// fast local pruning of a tree pattern query under required-child,
// required-descendant and co-occurrence integrity constraints.
//
// CDM labels every node with an information content — a set of information
// arguments — and propagates it up the tree, interleaving a minimization
// step: whenever propagation to a node completes, local rules fire and mark
// redundant leaf children, which are removed on the spot. The six argument
// forms of Section 5.4 are
//
//	T    the node is of type T with no (remaining) descendants
//	~T   the node is of type T and constrained by descendants
//	aT   the node must be an ancestor of an unconstrained T node that is a
//	     direct d-child (no intermediate ancestors)
//	a~T  the node must be an ancestor of a T node that is constrained or
//	     lies deeper than one hop
//	pT   the node must be the parent of an unconstrained T c-child
//	p~T  the node must be the parent of a constrained T c-child
//
// propagated by the rules of Figure 4 (reproduced at propagate below) and
// consumed by the minimization rules of Figure 6 (function deletable).
// Four facts make a leaf locally redundant (Section 5.4): (i) a c-child
// leaf implied by a required-child constraint on its parent's type; (ii) a
// d-child leaf implied by a required-descendant constraint; (iii) a c-child
// leaf covered by a sibling c-child through co-occurrence; (iv) a d-child
// leaf covered by any descendant of the parent, through co-occurrence or a
// required-descendant constraint on that descendant's type.
//
// Because co-occurrence is reflexive (every T node is trivially a T node),
// the sibling rules also fold duplicate same-type sibling leaves without
// any explicit constraint — a sound, strictly local strengthening over a
// literal reading of Figure 6.
//
// CDM is sound but deliberately incomplete: its output is locally minimal
// (Theorem 5.2: no leaf is locally redundant), it runs in
// O(min(n·maxd·maxf, n²)) time, and feeding its output to ACIM still
// yields the unique global minimum (Theorem 5.3). Its value is as a cheap
// pre-filter that shrinks the query before the more expensive ACIM runs.
//
// The sweep runs on the closed set's chase plan: types are symbols of the
// plan's alphabet, the rules read the plan's rows instead of the
// constraint set's hash indexes, and the query is the layout in pooled
// scratch that the engine flattens once per run (see run). InfoContent
// and DebugDump keep the literal Info maps for tests and teaching
// material.
package cdm

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"tpq/internal/bitset"
	"tpq/internal/chase"
	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// ArgKind enumerates the six information-argument forms.
type ArgKind int8

const (
	// SelfU is "T": the node's own type, unconstrained by descendants.
	SelfU ArgKind = iota
	// SelfC is "~T": the node's own type, constrained by descendants.
	SelfC
	// AncU is "aT": obligation to be an ancestor of an unconstrained
	// direct d-child leaf of type T.
	AncU
	// AncC is "a~T": obligation to be an ancestor of a constrained or
	// deeper T node.
	AncC
	// ParU is "pT": obligation to be the parent of an unconstrained
	// c-child leaf of type T.
	ParU
	// ParC is "p~T": obligation to be the parent of a constrained c-child
	// of type T.
	ParC
)

// String renders the kind prefix of the paper's notation.
func (k ArgKind) String() string {
	switch k {
	case SelfU:
		return ""
	case SelfC:
		return "~"
	case AncU:
		return "a "
	case AncC:
		return "a ~"
	case ParU:
		return "p "
	default:
		return "p ~"
	}
}

// Arg is one information argument.
type Arg struct {
	Kind ArgKind
	Type pattern.Type
}

// String renders the argument in the paper's notation, e.g. "a ~t5".
func (a Arg) String() string { return a.Kind.String() + string(a.Type) }

// Info is the information content of a node: the set of its arguments.
// Values are insertion-irrelevant; use Args for a deterministic listing.
type Info map[Arg]bool

// Args returns the arguments sorted for stable output.
func (in Info) Args() []Arg {
	out := make([]Arg, 0, len(in))
	for a := range in {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// String renders the content comma-separated, e.g. "~t2, a ~t5, a ~t6".
func (in Info) String() string {
	args := in.Args()
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// Stats describes a CDM run.
type Stats struct {
	// Removed is the number of nodes deleted.
	Removed int
	// Passes is the number of bottom-up sweeps executed (at least 1; the
	// last pass deletes nothing).
	Passes int
	// Probes is the number of lookups the minimization rules made into
	// the chase plan's rows of the constraint set: target and source
	// lists and co-occurrence tests. It is the run's work count — it
	// depends on the query and on the constraints the lookups return, not
	// on how many constraints the set stores, nor on the clock.
	Probes int
	// TotalTime is the wall-clock time of the run.
	TotalTime time.Duration
}

// Minimize returns a locally minimal query equivalent to p under cs,
// leaving p untouched.
func Minimize(p *pattern.Pattern, cs *ics.Set) *pattern.Pattern {
	q := p.Clone()
	MinimizeInPlace(q, cs)
	return q
}

// MinimizeInPlace removes every locally redundant node of p (the output
// node is never a candidate) and returns statistics. cs must be logically
// closed; it is closed defensively otherwise.
func MinimizeInPlace(p *pattern.Pattern, cs *ics.Set) (st Stats) {
	return MinimizeInPlaceTraced(p, cs, nil)
}

// MinimizeInPlaceTraced is MinimizeInPlace recording the run into tr
// (see MinimizeLayout). tr may be nil (then it is exactly
// MinimizeInPlace).
func MinimizeInPlaceTraced(p *pattern.Pattern, cs *ics.Set, tr *trace.Trace) Stats {
	if p == nil || p.Root == nil || cs == nil {
		return MinimizeLayout(nil, tr)
	}
	s := chase.GetScratch(chase.PlanFor(cs))
	defer s.Release()
	s.Flatten(p)
	return MinimizeLayout(s, tr)
}

// MinimizeLayout is the CDM core: it runs the sweep on the query
// flattened in s, under the constraint set of s's plan, and deletes each
// redundant leaf by detaching its node, its ordinal left in place. It
// records the elapsed time under tr's CDM phase and the removals under
// its CDMRemoved counter. s or tr may be nil.
func MinimizeLayout(s *chase.Scratch, tr *trace.Trace) (st Stats) {
	start := time.Now()
	defer func() {
		st.TotalTime = time.Since(start)
		tr.AddDur(trace.CDM, st.TotalTime)
		tr.Add(trace.CDMRemoved, st.Removed)
	}()
	if s == nil || len(s.Nodes) == 0 {
		st.Passes = 1
		return st
	}
	r := newRun(s.Plan(), s)
	for st.Passes = 1; r.sweep() > 0; st.Passes++ {
	}
	st.Removed, st.Probes = r.removed, r.probes
	return st
}

// InfoContent computes the information content of every node of p without
// removing anything — the labels of Figure 5, step 1. The constraint set
// is irrelevant to pure propagation and not needed.
func InfoContent(p *pattern.Pattern) map[*pattern.Node]Info {
	labels := make(map[*pattern.Node]Info)
	var rec func(n *pattern.Node) Info
	rec = func(n *pattern.Node) Info {
		in := Info{}
		for _, c := range n.Children {
			ci := rec(c)
			for a := range ci {
				in[propagate(c.Edge, a)] = true
			}
		}
		for _, t := range n.Types() {
			if len(n.Children) == 0 {
				in[Arg{SelfU, t}] = true
			} else {
				in[Arg{SelfC, t}] = true
			}
		}
		labels[n] = in
		return in
	}
	rec(p.Root)
	return labels
}

// propagate is Figure 4: how one argument of a child crosses the edge to
// its parent.
//
//	edge  child arg   result
//	 d    T2          a T2
//	 d    ~T2         a ~T2
//	 d    aT2 | a~T2  a ~T2
//	 d    pT2 | p~T2  a ~T2
//	 c    T2          p T2
//	 c    ~T2         p ~T2
//	 c    aT2 | a~T2  a ~T2
//	 c    pT2 | p~T2  a ~T2
func propagate(edge pattern.EdgeKind, a Arg) Arg {
	switch a.Kind {
	case SelfU:
		if edge == pattern.Child {
			return Arg{ParU, a.Type}
		}
		return Arg{AncU, a.Type}
	case SelfC:
		if edge == pattern.Child {
			return Arg{ParC, a.Type}
		}
		return Arg{AncC, a.Type}
	default:
		return Arg{AncC, a.Type}
	}
}

// run is one CDM run over a query flattened into pooled scratch: nodes
// are preorder ordinals, types are symbols of the chase plan's alphabet,
// and a deleted leaf keeps its ordinal, marked dead.
//
// A node's information content is a block of six bitsets over the
// alphabet, one per ArgKind, w words each, on a stack. Its first
// non-leaf child's block becomes its accumulator, the others are merged
// in and popped, and children are visited largest subtree first, so at
// most log2(n)+2 blocks are live at once. A leaf child holds no block:
// its contribution is its own types under its edge's kind, counted per
// symbol in count while its parent's rules run and cleared through the
// same symbols after, so a run's memory is linear in the query.
type run struct {
	pl      *chase.Plan
	s       *chase.Scratch
	w       int
	blocks  []bitset.Word
	count   []int32 // per symbol: occurrences among the leaf children
	kids    []int32 // child ordinals, one frame per open node
	dead    []bool
	probes  int
	removed int
}

func newRun(pl *chase.Plan, s *chase.Scratch) *run {
	n, nsym := len(s.Nodes), s.Alphabet()
	r := &run{pl: pl, s: s, w: bitset.WordsFor(nsym), dead: s.Flags(n)}
	ints := s.Ints(nsym + n)
	r.count, r.kids = ints[:nsym:nsym], ints[nsym:nsym]
	r.blocks = s.Words((bits.Len(uint(n)) + 2) * 6 * r.w)[:0]
	return r
}

// sweep performs one bottom-up propagation-plus-minimization pass and
// returns the number of nodes removed.
func (r *run) sweep() int {
	before := r.removed
	r.blocks = r.blocks[:0]
	r.visit(0)
	return r.removed - before
}

// visit sweeps the subtree of ordinal i and returns the offset of the
// block holding i's information content, or -1 when i is a leaf.
func (r *run) visit(i int32) int {
	s := r.s
	if len(s.Nodes[i].Children) == 0 {
		return -1
	}
	base, heavy := len(r.kids), -1
	for c := i + 1; c <= s.End[i]; c = s.End[c] + 1 {
		if !r.dead[c] {
			if heavy < 0 || s.End[c]-c > s.End[r.kids[heavy]]-r.kids[heavy] {
				heavy = len(r.kids)
			}
			r.kids = append(r.kids, c)
		}
	}
	end := len(r.kids)
	acc := r.fold(-1, r.kids[heavy])
	for j := base; j < end; j++ {
		if j != heavy {
			acc = r.fold(acc, r.kids[j])
		}
	}
	for _, c := range r.kids[base:end] {
		if len(s.Nodes[c].Children) == 0 {
			for _, t := range s.Syms(int(c)) {
				r.count[t]++
			}
		}
	}

	// Minimization step: delete locally redundant leaf children, in
	// n.Children order, until none is left. Each deletion changes the
	// merged view, so the candidate scan restarts; fanout is small in
	// practice and bounded work matches the paper's analysis.
	for j := base; j < end; {
		y := s.Nodes[r.kids[j]]
		if y.Star || len(y.Children) != 0 || !r.deletable(i, r.kids[j], r.kids[base:end], acc) {
			j++
			continue
		}
		for _, t := range s.Syms(int(r.kids[j])) {
			r.count[t]--
		}
		y.Detach()
		r.dead[r.kids[j]] = true
		copy(r.kids[j:end], r.kids[j+1:end])
		end, j = end-1, base
		r.removed++
	}

	// Assemble i's own information content from the survivors.
	kids := r.kids[base:end]
	r.kids = r.kids[:base]
	if len(kids) == 0 {
		if acc >= 0 {
			r.blocks = r.blocks[:acc]
		}
		return -1
	}
	if acc < 0 {
		acc = len(r.blocks)
		r.blocks = append(r.blocks, make([]bitset.Word, 6*r.w)...)
	}
	for _, c := range kids {
		if len(s.Nodes[c].Children) == 0 {
			kind := AncU
			if s.Nodes[c].Edge == pattern.Child {
				kind = ParU
			}
			for _, t := range s.Syms(int(c)) {
				r.count[t] = 0
				r.set(acc, kind, t)
			}
		}
	}
	for _, t := range s.Syms(int(i)) {
		r.set(acc, SelfC, t)
	}
	return acc
}

// fold visits child c and merges its contribution into the block acc,
// or adopts c's block as acc when acc is -1. It returns acc.
func (r *run) fold(acc int, c int32) int {
	b := r.visit(c)
	if b < 0 {
		return acc
	}
	if acc < 0 {
		acc = b
	}
	r.propagate(acc, b, r.s.Nodes[c].Edge)
	if acc != b {
		r.blocks = r.blocks[:b]
	}
	return acc
}

// propagate is Figure 4 on whole kinds: across a d-edge T stays
// unconstrained (aT) and everything else collapses to a~T; across a
// c-edge T and ~T keep their flavor as pT/p~T and the rest collapses to
// a~T. It ORs the contribution of block src into block dst, or turns
// src into its contribution when dst == src.
func (r *run) propagate(dst, src int, edge pattern.EdgeKind) {
	w := r.w
	d, b := r.blocks[dst:dst+6*w], r.blocks[src:src+6*w]
	for x := 0; x < w; x++ {
		su, sc := b[int(SelfU)*w+x], b[int(SelfC)*w+x]
		var out [6]bitset.Word
		out[AncC] = b[int(AncU)*w+x] | b[int(AncC)*w+x] | b[int(ParU)*w+x] | b[int(ParC)*w+x]
		if edge == pattern.Child {
			out[ParU], out[ParC] = su, sc
		} else {
			out[AncU], out[AncC] = su, out[AncC]|sc
		}
		for k, o := range out {
			if dst == src {
				d[k*w+x] = o
			} else {
				d[k*w+x] |= o
			}
		}
	}
}

func (r *run) set(b int, k ArgKind, t int32) {
	r.blocks[b+int(k)*r.w+int(t)/64] |= 1 << (uint(t) % 64)
}

// present reports whether an argument of type u lies below the node
// being minimized other than the candidate leaf y's own: in a non-leaf
// child's contribution (block acc) or among the other leaf children.
func (r *run) present(u, y int32, acc int) bool {
	w, x, bit := r.w, int(u)/64, bitset.Word(1)<<(uint(u)%64)
	if b := r.blocks; acc >= 0 && (b[acc+int(AncU)*w+x]|b[acc+int(AncC)*w+x]|b[acc+int(ParU)*w+x]|b[acc+int(ParC)*w+x])&bit != 0 {
		return true
	}
	c := r.count[u]
	for _, t := range r.s.Syms(int(y)) {
		if t == u {
			c--
		}
	}
	return c > 0
}

// deletable decides whether the leaf child y of node i is locally
// redundant under the closed constraint set — the minimization rules of
// Figure 6, generalized soundly to type sets:
//
//	arg1      arg2  constraint   effect
//	~T1(self) pT2   T1 -> T2     delete the c-child leaf   (rule 2)
//	~T1(self) aT2   T1 => T2     delete the d-child leaf   (rule 1)
//	sibling c-child with types covering T2 via ~            (rules 5,6, c)
//	any a/p arg T1  aT2  T1 => T2                           (rules 3,4)
//	any a/p arg T1  aT2  T1 ~ T2                            (rules 5,6, d)
//
// "Covering" accounts for extra types on the leaf: a witness of type B
// satisfies the leaf's requirement {t...} iff B ~ t holds (or B == t) for
// every required t. kids are i's live children; acc is the block of
// their non-leaf contributions.
func (r *run) deletable(i, y int32, kids []int32, acc int) bool {
	s, pl := r.s, r.pl
	yn := s.Nodes[y]
	need := s.Syms(int(y))
	// A leaf carrying value conditions (Section 7 extension) can only be
	// discharged by a sibling witness whose conditions entail them;
	// constraint-guaranteed witnesses are condition-free.
	condFree := len(yn.Conds) == 0

	// Rules 1 and 2: a constraint on one of the parent's own types.
	if condFree {
		for _, pt := range s.Syms(int(i)) {
			r.probes++
			targets := pl.DescTargets(pt)
			if yn.Edge == pattern.Child {
				targets = pl.ChildTargets(pt)
			}
			for _, b := range targets {
				if r.covers(b, need) {
					return true
				}
			}
		}
	}

	if yn.Edge == pattern.Child {
		// Rules 5/6 for a c-child: a sibling c-child whose types jointly
		// cover the leaf's requirement — and whose conditions entail the
		// leaf's. (The witness must itself be a c-child: only a child can
		// satisfy a child edge.)
		for _, z := range kids {
			if z != y && s.Nodes[z].Edge == pattern.Child && r.jointlyCovers(s.Syms(int(z)), need) && s.Nodes[z].CondsEntail(yn) {
				return true
			}
		}
		return false
	}

	// d-child: any node below i — sibling or deeper, represented by the
	// merged arguments — can witness, either directly via co-occurrence
	// (rules 5/6) or through a required-descendant constraint on its type
	// (rules 3/4). Candidate covering types come from the plan's source
	// rows, so each check is a few row reads — the efficiency the
	// information content exists to enable (ablation-cdm quantifies it
	// against direct tree-walking).
	if condFree {
		t0, srcs := need[0], pl.CoSources(need[0])
		r.probes++
		for j := 0; j <= len(srcs); j++ {
			u := t0
			if j < len(srcs) {
				u = srcs[j]
			}
			if !r.covers(u, need) {
				continue
			}
			if r.present(u, y, acc) {
				return true
			}
			r.probes++
			for _, t1 := range pl.DescSources(u) {
				if r.present(t1, y, acc) {
					return true
				}
			}
		}
	}
	// Siblings jointly (multi-typed witnesses are not decomposable into
	// single-type arguments).
	for _, z := range kids {
		if z != y && r.jointlyCovers(s.Syms(int(z)), need) && s.Nodes[z].CondsEntail(yn) {
			return true
		}
	}
	return false
}

// covers reports whether a guaranteed node of type b satisfies every type
// in need, via co-occurrence in the closed set.
func (r *run) covers(b int32, need []int32) bool {
	for _, t := range need {
		r.probes++
		if !r.pl.HasCo(b, t) {
			return false
		}
	}
	return true
}

// jointlyCovers reports whether a witness carrying all of have satisfies
// every type in need.
func (r *run) jointlyCovers(have, need []int32) bool {
	for _, t := range need {
		ok := false
		for _, h := range have {
			r.probes++
			if r.pl.HasCo(h, t) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// DebugDump renders every node with its information content, for tests and
// teaching material (the boxes of Figure 5).
func DebugDump(p *pattern.Pattern) string {
	labels := InfoContent(p)
	var b strings.Builder
	var rec func(n *pattern.Node, depth int)
	rec = func(n *pattern.Node, depth int) {
		fmt.Fprintf(&b, "%s%s%s  [%s]\n", strings.Repeat("  ", depth),
			edgePrefix(n), n.Type, labels[n])
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}

func edgePrefix(n *pattern.Node) string {
	if n.Parent == nil {
		return ""
	}
	return n.Edge.String()
}
