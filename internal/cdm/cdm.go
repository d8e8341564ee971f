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
package cdm

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

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
	// the constraint set's hash indexes: target and source lists and
	// co-occurrence tests. It is the run's work count — it depends on the
	// query and on the constraints the lookups return, not on how many
	// constraints the set stores, nor on the clock.
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
// node and temporary nodes are never candidates) and returns statistics.
// cs must be logically closed; it is closed defensively otherwise.
func MinimizeInPlace(p *pattern.Pattern, cs *ics.Set) (st Stats) {
	return MinimizeInPlaceTraced(p, cs, nil)
}

// MinimizeInPlaceTraced is MinimizeInPlace recording the run into tr:
// elapsed time under the CDM phase, removals under the CDMRemoved
// counter. tr may be nil (then it is exactly MinimizeInPlace).
func MinimizeInPlaceTraced(p *pattern.Pattern, cs *ics.Set, tr *trace.Trace) (st Stats) {
	start := time.Now()
	defer func() {
		st.TotalTime = time.Since(start)
		tr.AddDur(trace.CDM, st.TotalTime)
		tr.Add(trace.CDMRemoved, st.Removed)
	}()
	if p == nil || p.Root == nil || cs == nil {
		st.Passes = 1
		return st
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	for {
		st.Passes++
		removed, probes := sweep(p, cs)
		st.Removed += removed
		st.Probes += probes
		if removed == 0 {
			return st
		}
	}
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
		if edge == pattern.Descendant {
			return Arg{AncU, a.Type}
		}
		return Arg{ParU, a.Type}
	case SelfC:
		if edge == pattern.Descendant {
			return Arg{AncC, a.Type}
		}
		return Arg{ParC, a.Type}
	default:
		return Arg{AncC, a.Type}
	}
}

// argCounter is the merged per-type count of argument contributions below
// the node being minimized, backed by the sweep's interned type ids so
// deletable probes it without hashing strings.
type argCounter struct {
	ids   map[pattern.Type]int32
	count []int32
}

// at returns the count for t; a type absent from the pattern (hence from
// the id table) has necessarily no arguments below any node.
func (a argCounter) at(t pattern.Type) int32 {
	if id, ok := a.ids[t]; ok {
		return a.count[id]
	}
	return 0
}

// sweep performs one bottom-up propagation-plus-minimization pass and
// returns the number of nodes removed and of constraint lookups made.
//
// Information contents are represented as six per-kind bitsets over the
// pattern's interned types rather than as Info maps: every argument's
// type is the type of some pattern node, so the universe is known up
// front, and the Figure 4 propagation rules map whole kinds to kinds —
// a handful of word-ORs per edge instead of one string-hashing map
// insert per argument. On chain-shaped queries the per-node content is
// O(depth) arguments, which made map-based propagation the dominant cost
// of the whole pipeline once the chase was precompiled.
func sweep(p *pattern.Pattern, cs *ics.Set) (removed, probes int) {
	r := &rules{cs: cs}
	// Intern every type occurring in the pattern. Arguments only carry
	// node types, so this is the full universe of the pass.
	ids := make(map[pattern.Type]int32)
	var typeList []pattern.Type
	p.Walk(func(n *pattern.Node) {
		for _, t := range n.Types() {
			if _, ok := ids[t]; !ok {
				ids[t] = int32(len(typeList))
				typeList = append(typeList, t)
			}
		}
	})
	// One bitset per ArgKind, W words each, packed kind-major into a
	// single slice per node.
	W := (len(typeList) + 63) / 64
	newBits := func() []uint64 { return make([]uint64, 6*W) }
	block := func(b []uint64, k ArgKind) []uint64 { return b[int(k)*W : (int(k)+1)*W] }
	orInto := func(dst, src []uint64) {
		for i, w := range src {
			dst[i] |= w
		}
	}
	setBit := func(b []uint64, k ArgKind, id int32) {
		block(b, k)[id/64] |= 1 << (uint(id) % 64)
	}
	// propagate is Figure 4 on whole kinds: across a d-edge T stays
	// unconstrained (aT) and everything else collapses to a~T; across a
	// c-edge T and ~T keep their flavor as pT/p~T and the rest collapses
	// to a~T.
	propagateBits := func(dst, src []uint64, edge pattern.EdgeKind) {
		if edge == pattern.Descendant {
			orInto(block(dst, AncU), block(src, SelfU))
		} else {
			orInto(block(dst, ParU), block(src, SelfU))
			orInto(block(dst, ParC), block(src, SelfC))
		}
		anc := block(dst, AncC)
		if edge == pattern.Descendant {
			orInto(anc, block(src, SelfC))
		}
		orInto(anc, block(src, AncU))
		orInto(anc, block(src, AncC))
		orInto(anc, block(src, ParU))
		orInto(anc, block(src, ParC))
	}
	addCounts := func(count []int32, b []uint64, delta int32) {
		for i, w := range b {
			base := int32(i%W) * 64
			for ; w != 0; w &= w - 1 {
				count[base+int32(bits.TrailingZeros64(w))] += delta
			}
		}
	}

	var rec func(n *pattern.Node) []uint64
	rec = func(n *pattern.Node) []uint64 {
		// Process children first, keeping each child's contributed
		// (already propagated) arguments so they can be merged afterwards.
		kids := append([]*pattern.Node(nil), n.Children...)
		contrib := make([][]uint64, len(kids))
		for i, c := range kids {
			up := newBits()
			propagateBits(up, rec(c), c.Edge)
			contrib[i] = up
		}

		// Merged count of argument types below n (any a/p kind); the
		// deep-witness probes of deletable consult it in O(1) per
		// candidate type.
		ac := argCounter{ids: ids, count: make([]int32, len(typeList))}
		for _, up := range contrib {
			addCounts(ac.count, up, +1)
		}

		// Minimization step: delete locally redundant leaf children until
		// none is left. Each deletion invalidates the merged view, so the
		// candidate scan restarts; fanout is small in practice and bounded
		// work matches the paper's analysis.
		for {
			victim := -1
			for _, y := range n.Children {
				if y.Star || y.Temp || !y.IsLeaf() {
					continue
				}
				if r.deletable(n, y, ac) {
					for i, c := range kids {
						if c == y {
							victim = i
							break
						}
					}
					break
				}
			}
			if victim < 0 {
				break
			}
			addCounts(ac.count, contrib[victim], -1)
			kids[victim].Detach()
			contrib[victim] = nil
			removed++
		}

		// Assemble n's own information content from the survivors.
		in := newBits()
		for _, up := range contrib {
			if up != nil {
				orInto(in, up)
			}
		}
		selfKind := SelfC
		if len(n.Children) == 0 {
			selfKind = SelfU
		}
		for _, t := range n.Types() {
			setBit(in, selfKind, ids[t])
		}
		return in
	}
	rec(p.Root)
	return removed, r.probes
}

// rules applies the minimization rules under one closed constraint set
// and counts the lookups they make into its indexes (Stats.Probes).
type rules struct {
	cs     *ics.Set
	probes int
}

// deletable decides whether the leaf child y of n is locally redundant
// under the closed constraint set — the minimization rules of Figure 6,
// generalized soundly to type sets:
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
// every required t.
func (r *rules) deletable(n, y *pattern.Node, ac argCounter) bool {
	need := y.Types()
	// A leaf carrying value conditions (Section 7 extension) can only be
	// discharged by a sibling witness whose conditions entail them;
	// constraint-guaranteed witnesses are condition-free.
	condFree := len(y.Conds) == 0

	// Rules 1 and 2: a constraint on one of the parent's own types.
	for _, pt := range n.Types() {
		if !condFree {
			break
		}
		r.probes++
		var targets []pattern.Type
		if y.Edge == pattern.Child {
			targets = r.cs.ChildTargets(pt)
		} else {
			targets = r.cs.DescTargets(pt)
		}
		for _, b := range targets {
			if r.covers(b, need) {
				return true
			}
		}
	}

	if y.Edge == pattern.Child {
		// Rules 5/6 for a c-child: a sibling c-child whose types jointly
		// cover the leaf's requirement — and whose conditions entail the
		// leaf's. (The witness must itself be a c-child: only a child can
		// satisfy a child edge.)
		for _, z := range n.Children {
			if z == y || z.Edge != pattern.Child {
				continue
			}
			if r.jointlyCovers(z.Types(), need) && z.CondsEntail(y) {
				return true
			}
		}
		return false
	}

	// d-child: any node below n — sibling or deeper, represented by the
	// merged argument types — can witness, either directly via
	// co-occurrence (rules 5/6) or through a required-descendant
	// constraint on its type (rules 3/4). Candidate covering types are
	// found through the constraint set's reverse indexes, so each check is
	// a couple of hash probes — the efficiency the information content
	// exists to enable (ablation-cdm quantifies it against direct
	// tree-walking).
	if condFree {
		present := func(u pattern.Type) bool {
			c := ac.at(u)
			if y.HasType(u) {
				c-- // y's own contribution does not witness its deletion
			}
			return c > 0
		}
		t0 := need[0]
		r.probes++
		cands := append(r.cs.CoSources(t0), t0)
		for _, u := range cands {
			if !r.covers(u, need) {
				continue
			}
			if present(u) {
				return true
			}
			r.probes++
			for _, t1 := range r.cs.DescSources(u) {
				if present(t1) {
					return true
				}
			}
		}
	}
	// Siblings jointly (multi-typed witnesses are not decomposable into
	// single-type arguments).
	for _, z := range n.Children {
		if z != y && r.jointlyCovers(z.Types(), need) && z.CondsEntail(y) {
			return true
		}
	}
	return false
}

// covers reports whether a guaranteed node of type b satisfies every type
// in need, via co-occurrence in the closed set.
func (r *rules) covers(b pattern.Type, need []pattern.Type) bool {
	for _, t := range need {
		r.probes++
		if !r.cs.HasCo(b, t) {
			return false
		}
	}
	return true
}

// jointlyCovers reports whether a witness carrying all of have satisfies
// every type in need.
func (r *rules) jointlyCovers(have, need []pattern.Type) bool {
	for _, t := range need {
		ok := false
		for _, h := range have {
			r.probes++
			if r.cs.HasCo(h, t) {
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
