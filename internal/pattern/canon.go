package pattern

import (
	"bytes"
	"strconv"
	"sync"
)

// This file implements a canonical form for tree pattern queries, an
// adaptation of the Aho-Hopcroft-Ullman canonical encoding of unordered
// trees extended with edge kinds, output markers, type sets and value
// conditions. Two patterns are isomorphic — equal up to reordering of siblings —
// iff their canonical encodings are equal. Theorem 4.1 of the paper states
// the minimal equivalent query is unique up to isomorphism, so the test
// suite leans on this encoding heavily.
//
// The encoder is allocation-free after warm-up: the serving layer builds
// a cache key out of the canonical form on every request, so the child-key
// buffers needed to sort siblings come from a pooled scratch arena instead
// of fresh strings, and AppendCanonical writes into a caller-owned byte
// slice.

// canonScratch is the reusable state of one canonical encoding: a LIFO
// free-list of child-key buffers plus the per-node key stack. Pooled so
// that steady-state encodings allocate nothing.
type canonScratch struct {
	free  [][]byte // spare child-key buffers
	stack [][]byte // child keys of the nodes on the recursion path
}

var canonPool = sync.Pool{New: func() any { return &canonScratch{} }}

func (s *canonScratch) get() []byte {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 64)
}

func (s *canonScratch) put(b []byte) { s.free = append(s.free, b) }

// AppendCanonical appends the canonical encoding of p to dst and returns
// the extended slice, the way strconv.AppendInt does. This is the
// zero-allocation form of Canonical for hot paths that build cache keys:
// with a reused dst it allocates nothing in steady state.
func (p *Pattern) AppendCanonical(dst []byte) []byte {
	if p == nil || p.Root == nil {
		return dst
	}
	s := canonPool.Get().(*canonScratch)
	dst = appendCanon(dst, p.Root, s)
	canonPool.Put(s)
	return dst
}

// appendLabel appends the node's own label (types plus star marker plus
// conditions) in the text syntax.
func appendLabel(dst []byte, n *Node) []byte {
	dst = append(dst, n.Type...)
	if len(n.Extra) > 0 {
		dst = append(dst, '{')
		for i, t := range n.Extra {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, t...)
		}
		dst = append(dst, '}')
	}
	if n.Star {
		dst = append(dst, '*')
	}
	if len(n.Conds) > 0 {
		dst = append(dst, '(')
		for i, c := range n.Conds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '@')
			dst = append(dst, c.Attr...)
			dst = append(dst, c.Op.String()...)
			dst = strconv.AppendFloat(dst, c.Value, 'g', -1, 64)
		}
		dst = append(dst, ')')
	}
	return dst
}

func appendEdge(dst []byte, k EdgeKind) []byte {
	if k == Child {
		return append(dst, '/')
	}
	return append(dst, '/', '/')
}

func appendCanon(dst []byte, n *Node, s *canonScratch) []byte {
	dst = appendLabel(dst, n)
	switch len(n.Children) {
	case 0:
		return dst
	case 1:
		// A single child needs no sibling sort — encode straight into dst.
		c := n.Children[0]
		dst = append(dst, '(')
		dst = appendEdge(dst, c.Edge)
		dst = appendCanon(dst, c, s)
		return append(dst, ')')
	}
	// Encode each child key into a pooled buffer, sort the keys, then
	// splice them into dst. Insertion sort: sibling counts are small and
	// sort.Slice would heap-allocate its closure header.
	base := len(s.stack)
	for _, c := range n.Children {
		b := appendEdge(s.get(), c.Edge)
		b = appendCanon(b, c, s)
		s.stack = append(s.stack, b)
	}
	keys := s.stack[base:]
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j-1], keys[j]) > 0; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	dst = append(dst, '(')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
	}
	dst = append(dst, ')')
	for _, k := range keys {
		s.put(k)
	}
	s.stack = s.stack[:base]
	return dst
}

// canonKey returns the canonical encoding of the subtree rooted at n.
func canonKey(n *Node) string {
	s := canonPool.Get().(*canonScratch)
	b := appendCanon(s.get(), n, s)
	key := string(b)
	s.put(b)
	canonPool.Put(s)
	return key
}

// Canonical returns the canonical encoding of the whole pattern. Equal
// encodings mean isomorphic patterns.
func (p *Pattern) Canonical() string {
	if p == nil || p.Root == nil {
		return ""
	}
	return canonKey(p.Root)
}

// Isomorphic reports whether p and q are equal up to reordering of
// siblings. Types, type sets, edge kinds and output markers all must
// match.
func Isomorphic(p, q *Pattern) bool {
	return p.Canonical() == q.Canonical()
}

// sortedChildren returns n's children ordered by edge marker plus
// canonical key, for deterministic printing; each child's key is encoded
// once, and equal keys keep their original order.
func sortedChildren(n *Node) []*Node {
	if len(n.Children) < 2 {
		return n.Children
	}
	kids := append([]*Node(nil), n.Children...)
	s := canonPool.Get().(*canonScratch)
	base := len(s.stack)
	for _, c := range kids {
		b := appendCanon(appendEdge(s.get(), c.Edge), c, s)
		s.stack = append(s.stack, b)
	}
	keys := s.stack[base:]
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && bytes.Compare(keys[j-1], keys[j]) > 0; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
			kids[j-1], kids[j] = kids[j], kids[j-1]
		}
	}
	for _, k := range keys {
		s.put(k)
	}
	s.stack = s.stack[:base]
	canonPool.Put(s)
	return kids
}
