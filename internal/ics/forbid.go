package ics

import (
	"tpq/internal/pattern"
)

// Forbidden-structure constraints — the second extension discussed in the
// paper's conclusions (Section 7): constraints "that forbid certain types
// of children or descendants". The paper observes that under such
// constraints there may be no unique minimal equivalent query; this
// implementation therefore uses them for what is always sound regardless:
// detecting that a query (or a whole type) is unsatisfiable — equivalent
// to the empty answer on every database meeting the constraints. See
// chase.(*Plan).Unsatisfiable for the query-level check.
//
//	A !-> B    no A node has a c-child of type B
//	A !=> B    no A node has a descendant of type B
//
// The closure rules (applied by Set.Closure alongside the required-form
// rules) are:
//
//	a !=> b             ⊢  a !-> b
//	a' ~ a,  a !-> b    ⊢  a' !-> b    (an a' node is an a node)
//	a' ~ a,  a !=> b    ⊢  a' !=> b
//	b' ~ b,  a !-> b    ⊢  a !-> b'    (a b' child would be a b child)
//	b' ~ b,  a !=> b    ⊢  a !=> b'
//
// A contradiction between a required and a forbidden form does not make
// the constraint set inconsistent — it makes the *type* empty: no node of
// that type can exist in any database satisfying the set. EmptyTypes
// computes the full set of such types, propagating through requirements
// (a type whose required child cannot exist cannot exist either) and
// co-occurrence (a subtype of an empty type is empty).

// ForbidChild returns the constraint "no from node has a c-child of type
// to".
func ForbidChild(from, to pattern.Type) Constraint {
	return Constraint{ForbiddenChild, from, to}
}

// ForbidDesc returns the constraint "no from node has a descendant of type
// to".
func ForbidDesc(from, to pattern.Type) Constraint {
	return Constraint{ForbiddenDescendant, from, to}
}

// HasForbidden reports whether the set contains any forbidden form at
// all. When it does not, no query is unsatisfiable under the set —
// required and co-occurrence constraints alone can always be satisfied by
// growing the database — so unsatisfiability checks can return early.
func (s *Set) HasForbidden() bool { return len(s.fchild) > 0 || len(s.fdesc) > 0 }

// HasForbidChild reports a !-> b.
func (s *Set) HasForbidChild(a, b pattern.Type) bool { return s.fchild[a][b] }

// HasForbidDesc reports a !=> b.
func (s *Set) HasForbidDesc(a, b pattern.Type) bool { return s.fdesc[a][b] }

// coSources is the internal alias of CoSources used by the closure rules.
func (s *Set) coSources(t pattern.Type) []pattern.Type { return s.CoSources(t) }

// ForbidChildTargets returns the types b with a !-> b, sorted.
func (s *Set) ForbidChildTargets(a pattern.Type) []pattern.Type { return sortedKeys(s.fchild[a]) }

// ForbidDescTargets returns the types b with a !=> b, sorted.
func (s *Set) ForbidDescTargets(a pattern.Type) []pattern.Type { return sortedKeys(s.fdesc[a]) }

// EmptyTypes returns the set of types that cannot occur in any database
// satisfying the constraints: types whose own requirements contradict a
// forbidden form, closed under "requires an empty type" and "is a subtype
// of an empty type". The receiver should be closed; EmptyTypes closes it
// defensively otherwise.
func (s *Set) EmptyTypes() map[pattern.Type]bool {
	if !s.IsClosed() {
		s = s.Closure()
	}
	empty := make(map[pattern.Type]bool)
	// Direct contradictions.
	for _, t := range s.Types() {
		for b := range s.child[t] {
			if s.fchild[t][b] || s.fdesc[t][b] {
				empty[t] = true
			}
		}
		for b := range s.desc[t] {
			if s.fdesc[t][b] {
				empty[t] = true
			}
		}
	}
	// Propagate: required children/descendants of empty types, and
	// subtypes of empty types.
	for changed := true; changed; {
		changed = false
		for _, t := range s.Types() {
			if empty[t] {
				continue
			}
			for b := range s.child[t] {
				if empty[b] {
					empty[t] = true
					changed = true
				}
			}
			for b := range s.desc[t] {
				if empty[b] {
					empty[t] = true
					changed = true
				}
			}
			for b := range s.co[t] {
				if empty[b] {
					empty[t] = true
					changed = true
				}
			}
		}
	}
	return empty
}
