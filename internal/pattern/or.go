package pattern

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// This file adds disjunction to the pattern model: an or(p1, p2, ...)
// node whose alternatives are full pattern subtrees. The minimization and
// match kernels stay strictly conjunctive — Theorems 4.1/5.1 are proved
// for conjunctive TPQs only — so a disjunctive query is represented as a
// Disjunction, a union of conjunctive patterns produced by distributing
// every or-node (DNF). Per Zeng et al. ("Adding Logical Operators to Tree
// Pattern Queries"), the OR semantics is exactly this union: a data node
// answers the disjunctive query iff it answers some disjunct.

// MaxDisjuncts caps the DNF distribution. The cross product of or-nodes
// on sibling branches is exponential in the worst case; a query that
// distributes past this bound is rejected rather than silently truncated.
const MaxDisjuncts = 64

// Disjunction is a union of conjunctive tree pattern queries, the
// distributed form of a pattern with or-nodes. Its answer set is the
// union of the disjuncts' answer sets.
//
// Invariant: Disjuncts is non-empty, duplicate-free and sorted by
// canonical form. ParseDisjunctive, Distribute and NewDisjunction all
// maintain it, which is what makes Canonical a stable cache key: every
// spelling of the same disjunction — reordered alternatives, duplicated
// disjuncts, or(p) for p — encodes identically.
type Disjunction struct {
	Disjuncts []*Pattern
}

// ParseDisjunctive reads a pattern in the Parse syntax extended with
// or(alt1, alt2, ...) nodes (see the grammar in Parse) and returns its
// distributed form. A source with no or-node yields a single-disjunct
// Disjunction, so callers can treat every query uniformly; Singleton
// recovers the conjunctive fast path; it is the parsed tree itself, not
// a distributed copy.
func ParseDisjunctive(src string) (*Disjunction, error) {
	p := &parser{src: src, allowOr: true}
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q after pattern", p.rest())
	}
	if !p.sawOr {
		pat := &Pattern{Root: root}
		if err := pat.Validate(); err != nil {
			return nil, err
		}
		return &Disjunction{Disjuncts: []*Pattern{pat}}, nil
	}
	return Distribute(root)
}

// MustParseDisjunctive is ParseDisjunctive for tests and examples: it
// panics on error.
func MustParseDisjunctive(src string) *Disjunction {
	d, err := ParseDisjunctive(src)
	if err != nil {
		panic(err)
	}
	return d
}

// Distribute expands every or-node under root into a union of conjunctive
// patterns: an or-node contributes each alternative in turn (with the
// or-node's edge), an ordinary node the cross product of its children's
// expansions. Each resulting disjunct is validated — so a disjunct
// missing the output node, say or(a*, b) distributing to plain b, is
// reported — and the set is deduplicated and sorted by canonical form.
// The input tree is not consumed; disjuncts share no nodes with it.
func Distribute(root *Node) (*Disjunction, error) {
	variants, err := expandNode(root)
	if err != nil {
		return nil, err
	}
	pats := make([]*Pattern, 0, len(variants))
	for i, v := range variants {
		v.Parent = nil
		v.Edge = Child
		pat := &Pattern{Root: v}
		if err := pat.Validate(); err != nil {
			if len(variants) > 1 {
				return nil, fmt.Errorf("%w (disjunct %d of the distributed form)", err, i+1)
			}
			return nil, err
		}
		pats = append(pats, pat)
	}
	return NewDisjunction(pats...), nil
}

// NewDisjunction assembles a Disjunction from conjunctive patterns,
// deduplicating isomorphic disjuncts and sorting by canonical form to
// establish the Disjunction invariant. The patterns are taken as given
// (not cloned, not validated).
func NewDisjunction(pats ...*Pattern) *Disjunction {
	keyed := make([]struct {
		key string
		pat *Pattern
	}, 0, len(pats))
	for _, p := range pats {
		keyed = append(keyed, struct {
			key string
			pat *Pattern
		}{p.Canonical(), p})
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	d := &Disjunction{Disjuncts: make([]*Pattern, 0, len(keyed))}
	for i, k := range keyed {
		if i > 0 && k.key == keyed[i-1].key {
			continue
		}
		d.Disjuncts = append(d.Disjuncts, k.pat)
	}
	return d
}

// expandNode returns the conjunctive variants of the subtree at n. Fresh
// nodes every time: a variant of a child may appear in many combinations
// of the cross product, so each combination clones its own copy.
func expandNode(n *Node) ([]*Node, error) {
	if n.Or {
		var out []*Node
		for _, alt := range n.Children {
			vs, err := expandNode(alt)
			if err != nil {
				return nil, err
			}
			for _, v := range vs {
				v.Edge = n.Edge
				out = append(out, v)
			}
			if len(out) > MaxDisjuncts {
				return nil, errTooManyDisjuncts
			}
		}
		return out, nil
	}
	if len(n.Children) == 0 {
		return []*Node{copyLabel(n)}, nil
	}
	lists := make([][]*Node, len(n.Children))
	total := 1
	for i, c := range n.Children {
		var err error
		lists[i], err = expandNode(c)
		if err != nil {
			return nil, err
		}
		total *= len(lists[i])
		if total > MaxDisjuncts {
			return nil, errTooManyDisjuncts
		}
	}
	out := make([]*Node, 0, total)
	idx := make([]int, len(lists))
	for {
		m := copyLabel(n)
		for i, l := range lists {
			cc := cloneSubtree(l[idx[i]])
			cc.Parent = m
			m.Children = append(m.Children, cc)
		}
		out = append(out, m)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < len(lists[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out, nil
		}
	}
}

var errTooManyDisjuncts = fmt.Errorf("pattern: or-distribution produces more than %d disjuncts", MaxDisjuncts)

// copyLabel clones one node's label fields (everything but the tree
// links).
func copyLabel(n *Node) *Node {
	c := &Node{Type: n.Type, Star: n.Star, Or: n.Or, Edge: n.Edge}
	if len(n.Extra) > 0 {
		c.Extra = append([]Type(nil), n.Extra...)
	}
	if len(n.Conds) > 0 {
		c.Conds = append([]Condition(nil), n.Conds...)
	}
	return c
}

// cloneSubtree deep-copies the subtree at n (parent link left nil).
func cloneSubtree(n *Node) *Node {
	c := copyLabel(n)
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			cc := cloneSubtree(ch)
			cc.Parent = c
			c.Children[i] = cc
		}
	}
	return c
}

// Singleton returns the sole disjunct when the disjunction is really a
// conjunctive query (no or-node survived distribution), nil otherwise.
// The conjunctive serving and minimization fast paths key off it.
func (d *Disjunction) Singleton() *Pattern {
	if d != nil && len(d.Disjuncts) == 1 {
		return d.Disjuncts[0]
	}
	return nil
}

// Size returns the total node count across the disjuncts.
func (d *Disjunction) Size() int {
	if d == nil {
		return 0
	}
	n := 0
	for _, p := range d.Disjuncts {
		n += p.Size()
	}
	return n
}

// Clone returns a deep copy sharing no nodes with d.
func (d *Disjunction) Clone() *Disjunction {
	if d == nil {
		return nil
	}
	out := &Disjunction{Disjuncts: make([]*Pattern, len(d.Disjuncts))}
	for i, p := range d.Disjuncts {
		out.Disjuncts[i] = p.Clone()
	}
	return out
}

// Validate checks that the disjunction is non-empty and every disjunct is
// a well-formed conjunctive query.
func (d *Disjunction) Validate() error {
	if d == nil || len(d.Disjuncts) == 0 {
		return fmt.Errorf("pattern: empty disjunction")
	}
	for i, p := range d.Disjuncts {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("pattern: disjunct %d: %w", i+1, err)
		}
	}
	return nil
}

// AppendCanonical appends the canonical encoding of the disjunction to
// dst. A singleton encodes as its disjunct's plain canonical form — so
// or(p) and p share a cache key — and anything larger as "or(...)" over
// the disjuncts' encodings, sorted and deduplicated at encode time (cheap
// insurance for hand-built Disjunctions that skipped NewDisjunction).
// Like Pattern.AppendCanonical, steady-state calls allocate nothing.
func (d *Disjunction) AppendCanonical(dst []byte) []byte {
	if d == nil || len(d.Disjuncts) == 0 {
		return dst
	}
	if len(d.Disjuncts) == 1 {
		return d.Disjuncts[0].AppendCanonical(dst)
	}
	s := canonPool.Get().(*canonScratch)
	base := len(s.stack)
	for _, p := range d.Disjuncts {
		b := s.get()
		if p != nil && p.Root != nil {
			b = appendCanon(b, p.Root, s)
		}
		s.stack = append(s.stack, b)
	}
	keys := s.stack[base:]
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j-1], keys[j]) > 0; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	dst = append(dst, 'o', 'r', '(')
	wrote := 0
	for i, k := range keys {
		if i > 0 && bytes.Equal(k, keys[i-1]) {
			continue
		}
		if wrote > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		wrote++
	}
	dst = append(dst, ')')
	for _, k := range keys {
		s.put(k)
	}
	s.stack = s.stack[:base]
	canonPool.Put(s)
	return dst
}

// Canonical returns the canonical encoding of the disjunction; equal
// encodings mean the same union up to isomorphism of disjuncts.
func (d *Disjunction) Canonical() string {
	return string(d.AppendCanonical(nil))
}

// String renders the disjunction in the ParseDisjunctive syntax: the sole
// disjunct's text for a singleton, or(d1, d2, ...) otherwise.
func (d *Disjunction) String() string {
	if d == nil || len(d.Disjuncts) == 0 {
		return "<empty>"
	}
	if len(d.Disjuncts) == 1 {
		return d.Disjuncts[0].String()
	}
	var b strings.Builder
	b.WriteString("or(")
	for i, p := range d.Disjuncts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteByte(')')
	return b.String()
}
