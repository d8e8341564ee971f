package oracle

import (
	"tpq/internal/cim"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Reduce applies the paper's reduction step R in place: repeatedly delete
// any leaf whose presence is implied by a constraint at its parent — a
// c-child leaf of type T under a parent carrying a type T' with T' -> T,
// or a d-child leaf under a parent with T' => T. A leaf carrying extra
// types is deleted only if the constraint's witness carries them all (via
// co-occurrence in the closed set); a leaf with value conditions never is.
// Returns the number of nodes removed. cs need not be closed.
func Reduce(p *pattern.Pattern, cs *ics.Set) int {
	if p == nil || p.Root == nil || cs == nil {
		return 0
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	removed := 0
	for {
		var victim *pattern.Node
		p.Walk(func(n *pattern.Node) {
			if victim != nil || n.Star || n.Parent == nil || !n.IsLeaf() {
				return
			}
			if leafImplied(n, cs) {
				victim = n
			}
		})
		if victim == nil {
			return removed
		}
		victim.Detach()
		removed++
	}
}

// leafImplied reports whether the leaf's requirement is guaranteed by a
// constraint on one of its parent's types.
func leafImplied(n *pattern.Node, cs *ics.Set) bool {
	if len(n.Conds) > 0 {
		// Constraint witnesses are condition-free.
		return false
	}
	for _, pt := range n.Parent.Types() {
		var targets []pattern.Type
		if n.Edge == pattern.Child {
			targets = cs.ChildTargets(pt)
		} else {
			targets = cs.DescTargets(pt)
		}
		for _, b := range targets {
			if covers(b, n.Types(), cs) {
				return true
			}
		}
	}
	return false
}

// ApplyStrategy interprets a strategy string over the alphabet {A, R, M}
// of §5.3 on a clone of p: A = augmentation with the added material made
// permanent, R = reduction, M = constraint-independent minimization. It
// exists so tests can check the identities of Lemmas 5.2-5.4 (no strategy
// beats "AMR", "AMR" is idempotent, and ACIM computes "AMR"). It panics on
// any other step letter.
func ApplyStrategy(p *pattern.Pattern, cs *ics.Set, strategy string) *pattern.Pattern {
	q := p.Clone()
	closed := cs.Closure()
	for _, step := range strategy {
		switch step {
		case 'A', 'a':
			Augment(q, closed)
			q.Walk(func(n *pattern.Node) {
				n.Temp = false
				n.TempExtra = nil
			})
		case 'R', 'r':
			Reduce(q, closed)
		case 'M', 'm':
			cim.MinimizeInPlace(q, cim.Options{})
		default:
			panic("oracle: unknown strategy step " + string(step))
		}
	}
	return q
}
