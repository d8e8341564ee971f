package oracle

import (
	"time"

	"tpq/internal/cdm"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// MinimizeDirectInPlace applies the four local-redundancy facts of §5.4
// literally, without information contents: for every leaf it re-examines
// its parent's types, its siblings and — for rule (iv) — every descendant
// of the parent, walking the subtree each time. The paper introduces
// information contents because "the rules by themselves do not yield an
// efficient test, since they need information that is not available at a
// node or its neighbors"; this is the baseline that claim is measured
// against (the ablation-cdm figure). The output equals cdm.MinimizeInPlace.
func MinimizeDirectInPlace(p *pattern.Pattern, cs *ics.Set) (st cdm.Stats) {
	start := time.Now()
	defer func() { st.TotalTime = time.Since(start) }()
	if p == nil || p.Root == nil || cs == nil {
		st.Passes = 1
		return st
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	for {
		st.Passes++
		removed := 0
		for {
			victim := findDirectVictim(p, cs)
			if victim == nil {
				break
			}
			victim.Detach()
			removed++
		}
		st.Removed += removed
		if removed == 0 {
			return st
		}
	}
}

// findDirectVictim scans every leaf and checks the four rules by direct
// tree inspection.
func findDirectVictim(p *pattern.Pattern, cs *ics.Set) *pattern.Node {
	var victim *pattern.Node
	p.Walk(func(y *pattern.Node) {
		if victim != nil || y.Star || y.Temp || y.Parent == nil || !y.IsLeaf() {
			return
		}
		if directlyRedundant(y, cs) {
			victim = y
		}
	})
	return victim
}

func directlyRedundant(y *pattern.Node, cs *ics.Set) bool {
	n := y.Parent
	need := y.Types()
	condFree := len(y.Conds) == 0

	// Rules (i) and (ii): a constraint on the parent's own types.
	if condFree {
		for _, pt := range n.Types() {
			var targets []pattern.Type
			if y.Edge == pattern.Child {
				targets = cs.ChildTargets(pt)
			} else {
				targets = cs.DescTargets(pt)
			}
			for _, b := range targets {
				if covers(b, need, cs) {
					return true
				}
			}
		}
	}

	if y.Edge == pattern.Child {
		// Rule (iii): a sibling c-child covering the leaf.
		for _, z := range n.Children {
			if z != y && z.Edge == pattern.Child &&
				jointlyCovers(z.Types(), need, cs) && z.CondsEntail(y) {
				return true
			}
		}
		return false
	}

	// Rule (iv), sibling case: a sibling (of either edge kind) whose types
	// jointly cover the leaf and whose conditions entail it.
	for _, z := range n.Children {
		if z != y && jointlyCovers(z.Types(), need, cs) && z.CondsEntail(y) {
			return true
		}
	}
	if !condFree {
		return false
	}
	// Rule (iv), deep case: any descendant of the parent whose type
	// witnesses the leaf directly (co-occurrence) or through a
	// required-descendant constraint — found by walking the whole subtree,
	// which is exactly the cost the information content avoids.
	found := false
	var walk func(m *pattern.Node)
	walk = func(m *pattern.Node) {
		if found {
			return
		}
		if m != y && m != n {
			for _, t := range m.Types() {
				if covers(t, need, cs) {
					found = true
					return
				}
				for _, b := range cs.DescTargets(t) {
					if covers(b, need, cs) {
						found = true
						return
					}
				}
			}
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return found
}

// covers reports whether a guaranteed node of type b satisfies every type
// in need, via co-occurrence in the closed set.
func covers(b pattern.Type, need []pattern.Type, cs *ics.Set) bool {
	for _, t := range need {
		if !cs.HasCo(b, t) {
			return false
		}
	}
	return true
}

// jointlyCovers reports whether a witness carrying all of have satisfies
// every type in need.
func jointlyCovers(have, need []pattern.Type, cs *ics.Set) bool {
	for _, t := range need {
		ok := false
		for _, h := range have {
			if cs.HasCo(h, t) {
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
