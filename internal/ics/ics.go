// Package ics models the integrity constraints of Section 2.2 of the
// paper and their logical closure (Section 5.2):
//
//	T1 -> T2    required child:      every T1 node has a c-child of type T2
//	T1 => T2    required descendant: every T1 node has a descendant of type T2
//	T1 ~ T2     co-occurrence:       every T1 node is also of type T2
//
// Co-occurrence is directional ("every employee entry must also belong to
// the type person"), which is why data and pattern nodes carry type sets.
//
// A Set stores constraints in hash tables keyed by source type and by
// (source, target) pair, matching the implementation notes of Section 6.1:
// both the augmentation step of ACIM and the rule lookups of CDM are O(1)
// per probe and independent of how many constraints are stored — the
// property behind the flat curve of Figure 8(a).
package ics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"tpq/internal/pattern"
)

// Kind identifies the constraint form.
type Kind int8

const (
	// RequiredChild is T1 -> T2.
	RequiredChild Kind = iota
	// RequiredDescendant is T1 => T2.
	RequiredDescendant
	// CoOccurrence is T1 ~ T2 (directional).
	CoOccurrence
	// ForbiddenChild is T1 !-> T2 (see forbid.go).
	ForbiddenChild
	// ForbiddenDescendant is T1 !=> T2.
	ForbiddenDescendant
)

// String returns the constraint arrow for the kind.
func (k Kind) String() string {
	switch k {
	case RequiredChild:
		return "->"
	case RequiredDescendant:
		return "=>"
	case ForbiddenChild:
		return "!->"
	case ForbiddenDescendant:
		return "!=>"
	default:
		return "~"
	}
}

// Constraint is a single integrity constraint.
type Constraint struct {
	Kind     Kind
	From, To pattern.Type
}

// String renders the constraint, e.g. "Book -> Title".
func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s", c.From, c.Kind, c.To)
}

// Child returns the constraint "every from node has a c-child of type to".
func Child(from, to pattern.Type) Constraint {
	return Constraint{RequiredChild, from, to}
}

// Desc returns the constraint "every from node has a descendant of type
// to".
func Desc(from, to pattern.Type) Constraint {
	return Constraint{RequiredDescendant, from, to}
}

// Co returns the constraint "every from node is also of type to".
func Co(from, to pattern.Type) Constraint {
	return Constraint{CoOccurrence, from, to}
}

// Parse reads a constraint from text: "A -> B", "A => B" or "A ~ B".
func Parse(src string) (Constraint, error) {
	for _, k := range []Kind{ForbiddenDescendant, ForbiddenChild, RequiredDescendant, RequiredChild, CoOccurrence} {
		arrow := k.String()
		i := strings.Index(src, arrow)
		if i < 0 {
			continue
		}
		from := strings.TrimSpace(src[:i])
		to := strings.TrimSpace(src[i+len(arrow):])
		if from == "" || to == "" {
			return Constraint{}, fmt.Errorf("ics: malformed constraint %q", src)
		}
		return Constraint{k, pattern.Type(from), pattern.Type(to)}, nil
	}
	return Constraint{}, fmt.Errorf("ics: no constraint arrow in %q", src)
}

// MustParse is Parse for tests and examples; it panics on error.
func MustParse(src string) Constraint {
	c, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Set is a hash-indexed collection of constraints.
type Set struct {
	child  map[pattern.Type]map[pattern.Type]bool
	desc   map[pattern.Type]map[pattern.Type]bool
	co     map[pattern.Type]map[pattern.Type]bool
	fchild map[pattern.Type]map[pattern.Type]bool
	fdesc  map[pattern.Type]map[pattern.Type]bool
	// rco and rdesc are reverse indexes (target type -> source types) for
	// co-occurrence and required-descendant constraints, maintained by Add.
	rco   map[pattern.Type]map[pattern.Type]bool
	rdesc map[pattern.Type]map[pattern.Type]bool
	n     int
	// closed records that the set is known to equal its logical closure,
	// so the hot paths (CDM, augmentation) can skip re-deriving it. Set by
	// Closure and IsClosed, invalidated by Add.
	closed bool
	// seal caches the derived artifacts of a closed set — acyclicity, the
	// mentioned-type list, the constraint list, per-type sorted target
	// slices and the fingerprint — so hot paths (augmentation, CDM, the
	// chase-plan registry) stop re-deriving and re-sorting them on every
	// call. Installed by sealNow when closedness is established, cleared
	// by Add; read through an atomic pointer so concurrent read-only
	// sharing of a closed set is race-free.
	seal atomic.Pointer[sealInfo]
}

// sealInfo is the immutable cache of everything derivable from a closed
// set. All slices are shared with every caller and must not be modified.
type sealInfo struct {
	acyclic     bool
	types       []pattern.Type
	constraints []Constraint
	fingerprint string
	child       map[pattern.Type][]pattern.Type
	desc        map[pattern.Type][]pattern.Type
	co          map[pattern.Type][]pattern.Type
}

// sealNow computes and installs the seal. Called exactly when closedness
// is established (Closure, IsClosed); idempotent and safe to race — every
// computation yields the same values.
func (s *Set) sealNow() {
	if s.seal.Load() != nil {
		return
	}
	si := &sealInfo{
		acyclic:     s.acyclicRequiredUncached(),
		types:       s.typesUncached(),
		constraints: s.constraintsUncached(),
		child:       sortedTable(s.child),
		desc:        sortedTable(s.desc),
		co:          sortedTable(s.co),
	}
	si.fingerprint = fingerprintOf(si.constraints)
	s.seal.Store(si)
}

func sortedTable(t map[pattern.Type]map[pattern.Type]bool) map[pattern.Type][]pattern.Type {
	out := make(map[pattern.Type][]pattern.Type, len(t))
	for from, row := range t {
		out[from] = sortedKeys(row)
	}
	return out
}

// NewSet returns a set holding the given constraints.
func NewSet(cs ...Constraint) *Set {
	s := &Set{
		child:  make(map[pattern.Type]map[pattern.Type]bool),
		desc:   make(map[pattern.Type]map[pattern.Type]bool),
		co:     make(map[pattern.Type]map[pattern.Type]bool),
		fchild: make(map[pattern.Type]map[pattern.Type]bool),
		fdesc:  make(map[pattern.Type]map[pattern.Type]bool),
		rco:    make(map[pattern.Type]map[pattern.Type]bool),
		rdesc:  make(map[pattern.Type]map[pattern.Type]bool),
	}
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// ParseSet builds a set from textual constraints.
func ParseSet(srcs ...string) (*Set, error) {
	s := NewSet()
	for _, src := range srcs {
		c, err := Parse(src)
		if err != nil {
			return nil, err
		}
		s.Add(c)
	}
	return s, nil
}

// MustParseSet is ParseSet that panics on error.
func MustParseSet(srcs ...string) *Set {
	s, err := ParseSet(srcs...)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Set) table(k Kind) map[pattern.Type]map[pattern.Type]bool {
	switch k {
	case RequiredChild:
		return s.child
	case RequiredDescendant:
		return s.desc
	case ForbiddenChild:
		return s.fchild
	case ForbiddenDescendant:
		return s.fdesc
	default:
		return s.co
	}
}

// Add inserts c. Trivial constraints (a ~ a) and duplicates are ignored.
func (s *Set) Add(c Constraint) {
	if c.Kind == CoOccurrence && c.From == c.To {
		return
	}
	t := s.table(c.Kind)
	row := t[c.From]
	if row == nil {
		row = make(map[pattern.Type]bool)
		t[c.From] = row
	}
	if !row[c.To] {
		row[c.To] = true
		s.n++
		s.closed = false
		s.seal.Store(nil)
		if c.Kind == CoOccurrence || c.Kind == RequiredDescendant {
			rev := s.rco
			if c.Kind == RequiredDescendant {
				rev = s.rdesc
			}
			rrow := rev[c.To]
			if rrow == nil {
				rrow = make(map[pattern.Type]bool)
				rev[c.To] = rrow
			}
			rrow[c.From] = true
		}
	}
}

// Len returns the number of stored constraints.
func (s *Set) Len() int { return s.n }

// Has reports whether the exact constraint is stored. Minimization code
// should normally consult a closed set (see Closure), where Has answers
// "is this constraint implied".
func (s *Set) Has(c Constraint) bool {
	if c.Kind == CoOccurrence && c.From == c.To {
		return true
	}
	return s.table(c.Kind)[c.From][c.To]
}

// HasChild reports a -> b.
func (s *Set) HasChild(a, b pattern.Type) bool { return s.child[a][b] }

// HasDesc reports a => b.
func (s *Set) HasDesc(a, b pattern.Type) bool { return s.desc[a][b] }

// HasCo reports a ~ b (true when a == b).
func (s *Set) HasCo(a, b pattern.Type) bool { return a == b || s.co[a][b] }

// ChildTargets returns the types b with a -> b, sorted. On a sealed
// (closed) set the slice is cached — callers must not modify it.
func (s *Set) ChildTargets(a pattern.Type) []pattern.Type {
	if si := s.seal.Load(); si != nil {
		return si.child[a]
	}
	return sortedKeys(s.child[a])
}

// DescTargets returns the types b with a => b, sorted; cached like
// ChildTargets on closed sets.
func (s *Set) DescTargets(a pattern.Type) []pattern.Type {
	if si := s.seal.Load(); si != nil {
		return si.desc[a]
	}
	return sortedKeys(s.desc[a])
}

// CoTargets returns the types b with a ~ b, sorted (excluding a itself);
// cached like ChildTargets on closed sets.
func (s *Set) CoTargets(a pattern.Type) []pattern.Type {
	if si := s.seal.Load(); si != nil {
		return si.co[a]
	}
	return sortedKeys(s.co[a])
}

// CoSources returns the types u with u ~ b — b's subtypes — sorted, from
// a reverse index maintained by Add. The chase plan compiles it into
// CDM's rule rows, so it is not cached on closed sets.
func (s *Set) CoSources(b pattern.Type) []pattern.Type { return sortedKeys(s.rco[b]) }

// DescSources returns the types u with u => b, sorted; a reverse index
// like CoSources.
func (s *Set) DescSources(b pattern.Type) []pattern.Type { return sortedKeys(s.rdesc[b]) }

func sortedKeys(m map[pattern.Type]bool) []pattern.Type {
	out := make([]pattern.Type, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Constraints returns all stored constraints in a deterministic order. On
// a sealed (closed) set the slice is cached — callers must not modify it.
func (s *Set) Constraints() []Constraint {
	if si := s.seal.Load(); si != nil {
		return si.constraints
	}
	return s.constraintsUncached()
}

func (s *Set) constraintsUncached() []Constraint {
	var out []Constraint
	for _, k := range []Kind{RequiredChild, RequiredDescendant, CoOccurrence, ForbiddenChild, ForbiddenDescendant} {
		t := s.table(k)
		froms := make([]pattern.Type, 0, len(t))
		for f := range t {
			froms = append(froms, f)
		}
		sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
		for _, f := range froms {
			for _, to := range sortedKeys(t[f]) {
				out = append(out, Constraint{k, f, to})
			}
		}
	}
	return out
}

// String lists the constraints semicolon-separated.
func (s *Set) String() string {
	cs := s.Constraints()
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, "; ")
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return NewSet(s.Constraints()...)
}

// Closure returns the logical closure of the set under the sound inference
// rules for required-child, required-descendant and co-occurrence
// constraints:
//
//	a -> b            ⊢  a => b
//	a => b, b => c    ⊢  a => c
//	a ~ b,  b ~ c     ⊢  a ~ c
//	a ~ b,  b -> c    ⊢  a -> c     (an a node is a b node)
//	a ~ b,  b => c    ⊢  a => c
//	a -> b, b ~ c     ⊢  a -> c     (the required child is also a c)
//	a => b, b ~ c     ⊢  a => c
//
// The closure has size at most quadratic in the number of types, as noted
// in Section 5.2. The receiver is not modified. A set already known to be
// closed is returned as itself — closed sets are shared read-only
// throughout the pipeline, and memoizing the closure here is what lets
// hot paths call Closure defensively for free. Callers must therefore
// not mutate the result. A nil set means no constraints: its closure is
// a fresh empty closed set.
func (s *Set) Closure() *Set {
	if s == nil {
		return NewSet().Closure()
	}
	if s.closed {
		s.sealNow()
		return s
	}
	c := s.Clone()
	defer func() {
		c.closed = true
		c.sealNow()
	}()
	for changed := true; changed; {
		changed = false
		add := func(nc Constraint) {
			if !c.Has(nc) {
				c.Add(nc)
				changed = true
			}
		}
		for _, con := range c.Constraints() {
			switch con.Kind {
			case RequiredChild:
				add(Desc(con.From, con.To))
				for _, t := range c.CoTargets(con.To) {
					add(Child(con.From, t))
				}
			case RequiredDescendant:
				for _, t := range c.DescTargets(con.To) {
					add(Desc(con.From, t))
				}
				for _, t := range c.CoTargets(con.To) {
					add(Desc(con.From, t))
				}
			case CoOccurrence:
				for _, t := range c.CoTargets(con.To) {
					add(Co(con.From, t))
				}
				for _, t := range c.ChildTargets(con.To) {
					add(Child(con.From, t))
				}
				for _, t := range c.DescTargets(con.To) {
					add(Desc(con.From, t))
				}
				// Forbidden forms inherited through subtyping: constraints
				// on the supertype apply to the subtype's nodes.
				for _, t := range c.ForbidChildTargets(con.To) {
					add(ForbidChild(con.From, t))
				}
				for _, t := range c.ForbidDescTargets(con.To) {
					add(ForbidDesc(con.From, t))
				}
			case ForbiddenDescendant:
				add(ForbidChild(con.From, con.To))
				// A subtype of the forbidden target is equally forbidden.
				for _, t := range c.coSources(con.To) {
					add(ForbidDesc(con.From, t))
				}
			case ForbiddenChild:
				for _, t := range c.coSources(con.To) {
					add(ForbidChild(con.From, t))
				}
			}
		}
	}
	return c
}

// IsClosed reports whether the set equals its closure. O(1) for sets
// produced by Closure; otherwise the closure is computed and the result
// cached when it turns out the set was closed all along.
func (s *Set) IsClosed() bool {
	if s.closed {
		return true
	}
	if s.Closure().Len() == s.Len() {
		s.closed = true
		s.sealNow()
	}
	return s.closed
}

// Types returns every type mentioned by the set, sorted. On a sealed
// (closed) set the slice is cached — callers must not modify it.
func (s *Set) Types() []pattern.Type {
	if si := s.seal.Load(); si != nil {
		return si.types
	}
	return s.typesUncached()
}

func (s *Set) typesUncached() []pattern.Type {
	set := make(map[pattern.Type]bool)
	for _, c := range s.Constraints() {
		set[c.From] = true
		set[c.To] = true
	}
	return sortedKeys(set)
}

// AcyclicRequired reports whether the directed graph of required-child and
// required-descendant constraints is acyclic. A cyclic requirement graph
// (a => b, b => a) is satisfiable only by infinite trees, so data
// generation and repair demand acyclicity. O(1) on a sealed (closed) set;
// augmentation and the virtual witness model consult it per query.
func (s *Set) AcyclicRequired() bool {
	if si := s.seal.Load(); si != nil {
		return si.acyclic
	}
	return s.acyclicRequiredUncached()
}

func (s *Set) acyclicRequiredUncached() bool {
	// Gather edges from both child and desc tables.
	adj := make(map[pattern.Type][]pattern.Type)
	for _, c := range s.Constraints() {
		if c.Kind == RequiredChild || c.Kind == RequiredDescendant {
			adj[c.From] = append(adj[c.From], c.To)
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[pattern.Type]int)
	var visit func(t pattern.Type) bool
	visit = func(t pattern.Type) bool {
		color[t] = gray
		for _, u := range adj[t] {
			switch color[u] {
			case gray:
				return false
			case white:
				if !visit(u) {
					return false
				}
			}
		}
		color[t] = black
		return true
	}
	for t := range adj {
		if color[t] == white && !visit(t) {
			return false
		}
	}
	return true
}
