package genquery

import (
	"fmt"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// This file decodes queries and constraint sets deterministically from raw
// bytes — the generator behind the differential fuzzing harness (package
// difffuzz). Unlike Random/RandomConstraints, which consume a rand.Rand,
// these decoders consume the fuzzer's byte string directly, so Go's native
// fuzzing mutates the query structure itself: flipping a byte moves a
// subtree, toggles an edge kind, or rewrites a constraint, and corpus
// minimization shrinks straight to small witnesses.
//
// Every byte string decodes to a valid query (exhausted input reads
// zeroes), and the decoding is total and deterministic: the same bytes
// always yield the same (query, constraints) pair.

// decode bounds. Small alphabets force type collisions, which is where
// redundancy — and therefore minimization — happens.
const (
	maxDecodeSize      = 14
	maxDecodeAlphabet  = 6
	maxDecodeICs       = 10
	maxDecodeConds     = 3
	maxDecodeExtras    = 3
	maxDecodeDisjuncts = 4
)

// byteCursor reads bytes one at a time, yielding 0 once exhausted.
type byteCursor struct {
	data []byte
	pos  int
}

func (c *byteCursor) next() int {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b)
}

// FromBytes decodes a query from data. The query has between 1 and
// maxDecodeSize nodes over an alphabet small enough for type collisions,
// random child/descendant edges, an arbitrary output node, and — with low
// probability — extra types and value conditions, covering the paper's
// Section 7 extensions. The result always passes Validate.
func FromBytes(data []byte) *pattern.Pattern {
	c := &byteCursor{data: data}
	return decodeQuery(c)
}

// FromBytesWithICs decodes a (query, constraint set) pair from data: the
// query as in FromBytes, then up to maxDecodeICs constraints whose
// required-child/required-descendant edges always point from a lower type
// index to a higher one, keeping the requirement graph acyclic — the
// regime in which the bounded-chase equivalence judge is exact. Forbidden
// forms are emitted with low probability (they never participate in
// minimization, only in unsatisfiability checks).
func FromBytesWithICs(data []byte) (*pattern.Pattern, *ics.Set) {
	c := &byteCursor{data: data}
	q := decodeQuery(c)
	cs := decodeConstraints(c)
	return q, cs
}

// DisjunctionFromBytes decodes a (disjunctive query, constraint set) pair
// from data: between 1 and maxDecodeDisjuncts disjuncts, each decoded as
// in FromBytes over its own slice of the cursor, then constraints as in
// FromBytesWithICs. Disjuncts share the small alphabet, so containment
// between them — the regime absorption pruning works in — is common. The
// decoding is total and deterministic, and the result always validates.
func DisjunctionFromBytes(data []byte) (*pattern.Disjunction, *ics.Set) {
	c := &byteCursor{data: data}
	k := 1 + c.next()%maxDecodeDisjuncts
	pats := make([]*pattern.Pattern, 0, k)
	for i := 0; i < k; i++ {
		pats = append(pats, decodeQuery(c))
	}
	cs := decodeConstraints(c)
	return pattern.NewDisjunction(pats...), cs
}

func decodeQuery(c *byteCursor) *pattern.Pattern {
	size := 1 + c.next()%maxDecodeSize
	alphabet := 1 + c.next()%maxDecodeAlphabet

	root := pattern.NewNode(T(c.next() % alphabet))
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		parent := nodes[c.next()%len(nodes)]
		kind := pattern.Child
		if c.next()%2 == 1 {
			kind = pattern.Descendant
		}
		nodes = append(nodes, parent.AddChild(kind, pattern.NewNode(T(c.next()%alphabet))))
	}
	nodes[c.next()%len(nodes)].Star = true

	// Extra types (multi-typed, LDAP-style nodes), rarely.
	for i := c.next() % maxDecodeExtras; i > 0; i-- {
		if c.next()%4 != 0 {
			continue
		}
		nodes[c.next()%len(nodes)].AddType(T(c.next() % alphabet))
	}
	// Value conditions, rarely. Attributes and values are drawn from tiny
	// domains so that entailment between conditions actually occurs.
	for i := c.next() % maxDecodeConds; i > 0; i-- {
		if c.next()%4 != 0 {
			continue
		}
		n := nodes[c.next()%len(nodes)]
		n.AddCond(pattern.Condition{
			Attr:  fmt.Sprintf("a%d", c.next()%2),
			Op:    pattern.Op(c.next() % 6),
			Value: float64(c.next() % 4),
		})
	}
	return pattern.New(root)
}

func decodeConstraints(c *byteCursor) *ics.Set {
	var kept []ics.Constraint
	n := c.next() % (maxDecodeICs + 1)
	for i := 0; i < n; i++ {
		lo := c.next() % maxDecodeAlphabet
		hi := c.next() % maxDecodeAlphabet
		if lo == hi {
			hi = (hi + 1) % maxDecodeAlphabet
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		from, to := T(lo), T(hi)
		var con ics.Constraint
		switch c.next() % 8 {
		case 0, 1, 2:
			con = ics.Child(from, to)
		case 3, 4:
			con = ics.Desc(from, to)
		case 5, 6:
			// Co-occurrence may point either way: cycles of ~ are legal
			// (mutually co-occurring types) and exercise the closure.
			if c.next()%2 == 0 {
				from, to = to, from
			}
			con = ics.Co(from, to)
		default:
			if c.next()%2 == 0 {
				con = ics.ForbidChild(from, to)
			} else {
				con = ics.ForbidDesc(from, to)
			}
		}
		// A reversed co-occurrence can turn the closed required graph
		// cyclic (t3 ~ t0 derives t3 -> t1 from t0 -> t1); cyclic
		// requirements are satisfiable only by infinite databases, outside
		// the regime the bounded-chase equivalence judge is exact in. Keep
		// a constraint only if the closure stays acyclic.
		trial := ics.NewSet(append(kept, con)...)
		if trial.Closure().AcyclicRequired() {
			kept = append(kept, con)
		}
	}
	return ics.NewSet(kept...)
}
