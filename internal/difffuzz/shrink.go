package difffuzz

import (
	"fmt"

	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Shrinking: given a failing (query, constraints) pair and a predicate
// that re-runs the failing oracle, greedily reduce the case while it keeps
// failing. Every accepted step strictly decreases the measure
// (nodes + constraints + conditions + extra types + descendant edges), so
// the loop terminates; the result is a local minimum — no single
// simplification preserves the failure — which in practice is a handful of
// nodes and one or two constraints.

// Failing is a predicate that reports whether a case still triggers the
// bug being shrunk. It must not mutate its arguments.
type Failing func(*pattern.Pattern, *ics.Set) bool

// StillFails adapts Check into a Failing predicate that accepts any
// violation of the same oracle as the original failure.
func StillFails(oracle string) Failing {
	return func(q *pattern.Pattern, cs *ics.Set) bool {
		f := Check(q, cs)
		return f != nil && f.Oracle == oracle
	}
}

// Shrink reduces (q, cs) to a smaller pair for which failing still holds.
// The inputs are never mutated. If failing does not hold on the inputs
// themselves they are returned unchanged.
func Shrink(q *pattern.Pattern, cs *ics.Set, failing Failing) (*pattern.Pattern, *ics.Set) {
	if cs == nil {
		cs = ics.NewSet()
	}
	if !failing(q, cs) {
		return q, cs
	}
	q, cs = q.Clone(), cs.Clone()
	for {
		if next, ok := shrinkConstraints(q, cs, failing); ok {
			cs = next
			continue
		}
		if next, ok := shrinkQuery(q, cs, failing); ok {
			q = next
			continue
		}
		return q, cs
	}
}

// shrinkConstraints tries dropping each constraint in turn.
func shrinkConstraints(q *pattern.Pattern, cs *ics.Set, failing Failing) (*ics.Set, bool) {
	all := cs.Constraints()
	for drop := range all {
		trial := ics.NewSet()
		for i, c := range all {
			if i != drop {
				trial.Add(c)
			}
		}
		if failing(q, trial) {
			return trial, true
		}
	}
	return nil, false
}

// shrinkQuery tries, in order of decreasing impact: deleting a subtree,
// deleting conditions and extra types, and weakening a descendant edge to
// a child edge. Returns the first smaller failing variant.
func shrinkQuery(q *pattern.Pattern, cs *ics.Set, failing Failing) (*pattern.Pattern, bool) {
	nodes := q.Nodes()
	// Delete whole subtrees, biggest win first (preorder: parents before
	// children, so a successful parent deletion skips its subtree).
	for _, n := range nodes {
		if n.Parent == nil || containsStar(n) {
			continue
		}
		trial, m := q.CloneMap()
		m[n].Detach()
		if trial.Validate() == nil && failing(trial, cs) {
			return trial, true
		}
	}
	for _, n := range nodes {
		if len(n.Conds) > 0 {
			trial, m := q.CloneMap()
			m[n].Conds = nil
			if failing(trial, cs) {
				return trial, true
			}
		}
		if len(n.Extra) > 0 {
			trial, m := q.CloneMap()
			m[n].Extra = nil
			if failing(trial, cs) {
				return trial, true
			}
		}
		if n.Parent != nil && n.Edge != pattern.Child {
			trial, m := q.CloneMap()
			m[n].Edge = pattern.Child
			if failing(trial, cs) {
				return trial, true
			}
		}
	}
	return nil, false
}

func containsStar(n *pattern.Node) bool {
	if n.Star {
		return true
	}
	for _, c := range n.Children {
		if containsStar(c) {
			return true
		}
	}
	return false
}

// Repro renders a shrunk case as the two strings needed to reproduce it:
// the query in pattern.Parse syntax and the constraints in ics.Parse
// syntax (semicolon-separated).
func Repro(q *pattern.Pattern, cs *ics.Set) string {
	return fmt.Sprintf("query %q  ics %q", q.String(), constraintString(cs))
}
