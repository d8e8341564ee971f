package oracle

import (
	"time"

	"tpq/internal/cim"
	"tpq/internal/pattern"
)

// MinimizeMapInPlace is CIM on the nested-map images tables: it removes
// every redundant node of p, testing the candidate NextCandidate picks and
// never retesting a leaf found non-redundant (enhancement 1 of §4). It
// has the signature acim.MinimizeWithRunner expects, so
//
//	acim.MinimizeWithRunner(q, cs, oracle.MinimizeMapInPlace)
//
// is ACIM with the reference kernel in place of the incremental engine.
func MinimizeMapInPlace(p *pattern.Pattern) (st cim.Stats) {
	start := time.Now()
	defer func() { st.TotalTime = time.Since(start) }()
	nonRedundant := make(map[*pattern.Node]bool)
	for l := NextCandidate(p, nonRedundant, nil); l != nil; l = NextCandidate(p, nonRedundant, nil) {
		st.Tests++
		if redundantLeafMap(p, l, &st) {
			l.Detach()
			st.Removed++
		} else {
			nonRedundant[l] = true
		}
	}
	return st
}

// MinimizeNaiveInPlace is CIM without enhancement 1 of §4: after every
// removal every candidate leaf is tested again, including those already
// found non-redundant. It drives cim.Engine through Candidates, Test and
// Remove and never calls MarkNonRedundant, so it performs quadratically
// more redundancy tests than cim.MinimizeInPlace and reaches the same
// minimal query (Theorem 4.1).
func MinimizeNaiveInPlace(p *pattern.Pattern) cim.Stats {
	start := time.Now()
	e := cim.NewEngine(p, cim.Options{})
	defer e.Close()
	for removed := true; removed; {
		removed = false
		for _, l := range e.Candidates() {
			if e.Test(l) {
				e.Remove(l)
				removed = true
				break
			}
		}
	}
	st := e.Stats()
	st.TotalTime = time.Since(start)
	return st
}

// NextCandidate picks the best-ranked effective leaf of p that is still
// worth testing: not the output node, not temporary, not known
// non-redundant. The rank is the preorder position, or — when order is
// non-nil — the node's entry in order, with unmapped nodes after every
// mapped one; ties go to the earlier preorder position. It re-walks the
// whole pattern on every call: the reference for the candidate order of
// cim.Engine's worklist.
func NextCandidate(p *pattern.Pattern, nonRedundant map[*pattern.Node]bool, order map[*pattern.Node]int) *pattern.Node {
	var best *pattern.Node
	bestRank := int(^uint(0) >> 1)
	pos := 0
	p.Walk(func(n *pattern.Node) {
		pos++
		if n.Star || n.Temp || nonRedundant[n] || !effectiveLeaf(n) {
			return
		}
		rank := pos
		if order != nil {
			if r, ok := order[n]; ok {
				rank = r
			} else {
				rank = pos + 1<<20
			}
		}
		if best == nil || rank < bestRank {
			best, bestRank = n, rank
		}
	})
	return best
}

// RedundantLeafMap reports whether l — an effective leaf of p — is
// redundant, by Figure 3 on nested-map images tables.
func RedundantLeafMap(p *pattern.Pattern, l *pattern.Node) bool {
	var st cim.Stats
	return redundantLeafMap(p, l, &st)
}

// effectiveLeaf reports whether n has no permanent children: temporary
// children are witnesses, not requirements.
func effectiveLeaf(n *pattern.Node) bool {
	for _, c := range n.Children {
		if !c.Temp {
			return false
		}
	}
	return true
}

// imageCompatible is label compatibility for the images tables: type-set
// inclusion plus one-directional output preservation, counting only u's
// required types. Extra types added by augmentation are consequences of
// the integrity constraints, guaranteed at any image of u, so they must
// not narrow u's image set (they still widen v's capability side).
func imageCompatible(u, v *pattern.Node) bool {
	if u.Star && !v.Star {
		return false
	}
	return u.RequiredTypesSubsetOf(v) && v.CondsEntail(u)
}

// redundantLeafMap is Figure 3 with the enhancements of §4: images(l)
// excludes l's own subtree, every other permanent node starts with all
// label-compatible nodes, and the sets are pruned bottom-up along l's root
// path with the two early exits (an empty set: not redundant; v in
// images(v) at a proper ancestor: redundant).
func redundantLeafMap(p *pattern.Pattern, l *pattern.Node, st *cim.Stats) bool {
	tStart := time.Now()
	st.TablesBuilt++
	idx := pattern.NewIndex(p)

	// Temporaries are never requirements, so they get no image set; they
	// may serve as images of anything except the leaf being deleted.
	images := make(map[*pattern.Node]map[*pattern.Node]bool, len(idx.Order))
	ownTemp := make(map[*pattern.Node]bool)
	for _, m := range l.Children {
		markSubtree(m, ownTemp)
	}
	for _, v := range idx.Order {
		if v.Temp {
			continue
		}
		set := make(map[*pattern.Node]bool)
		for _, m := range idx.Order {
			if v == l && (m == l || ownTemp[m]) {
				continue
			}
			if imageCompatible(v, m) {
				set[m] = true
			}
		}
		images[v] = set
	}
	st.TablesTime += time.Since(tStart)

	if len(images[l]) == 0 {
		return false
	}

	marked := map[*pattern.Node]bool{l: true}
	for v := l.Parent; v != nil; v = v.Parent {
		pruneImages(v, images, marked, idx)
		if len(images[v]) == 0 {
			return false
		}
		if v != p.Root && images[v][v] {
			// subtree(v) maps into itself with v fixed; extend with the
			// identity outside subtree(v).
			return true
		}
	}
	return len(images[p.Root]) > 0
}

func markSubtree(n *pattern.Node, set map[*pattern.Node]bool) {
	set[n] = true
	for _, c := range n.Children {
		markSubtree(c, set)
	}
}

// pruneImages prunes the image sets of v's permanent descendants and then
// of v itself, marking processed nodes so shared work is not repeated
// across the upward walk.
func pruneImages(v *pattern.Node, images map[*pattern.Node]map[*pattern.Node]bool, marked map[*pattern.Node]bool, idx *pattern.Index) {
	if marked[v] {
		return
	}
	marked[v] = true
	var reqs []*pattern.Node
	for _, c := range v.Children {
		if !c.Temp {
			reqs = append(reqs, c)
		}
	}
	for _, u := range reqs {
		pruneImages(u, images, marked, idx)
	}
	set := images[v]
	for s := range set {
		for _, u := range reqs {
			if !hasImageUnder(u, s, images[u], idx) {
				delete(set, s)
				break
			}
		}
	}
}

// hasImageUnder reports whether child u of the pattern has a surviving
// image correctly related to the candidate image s of u's parent.
func hasImageUnder(u *pattern.Node, s *pattern.Node, uImages map[*pattern.Node]bool, idx *pattern.Index) bool {
	if u.Edge == pattern.Child {
		for _, m := range s.Children {
			if m.Edge == pattern.Child && uImages[m] {
				return true
			}
		}
		return false
	}
	for m := range uImages {
		if idx.IsDescendant(m, s) {
			return true
		}
	}
	return false
}
