package oracle

import (
	"tpq/internal/containment"
	"tpq/internal/pattern"
)

// FindMappingMap returns a containment mapping from p to q, or nil if none
// exists, by the bottom-up dynamic program on nested maps: for each node u
// of p (children first) the set of q nodes u can map to, then a top-down
// pass picking one image per node. Worst-case time
// O(|p|·|q|·(maxFanout·|q|)); containment.FindMapping is the same program
// on bitset rows.
func FindMappingMap(p, q *pattern.Pattern) containment.Mapping {
	if p == nil || p.Root == nil || q == nil || q.Root == nil {
		return nil
	}
	qNodes := q.Nodes()

	canMap := make(map[*pattern.Node]map[*pattern.Node]bool)
	var compute func(u *pattern.Node)
	compute = func(u *pattern.Node) {
		for _, c := range u.Children {
			compute(c)
		}
		row := make(map[*pattern.Node]bool, len(qNodes))
		for _, v := range qNodes {
			if !mappingCompatible(u, v) {
				continue
			}
			ok := true
			for _, c := range u.Children {
				if pickChildImage(c, v, canMap[c]) == nil {
					ok = false
					break
				}
			}
			if ok {
				row[v] = true
			}
		}
		canMap[u] = row
	}
	compute(p.Root)

	var rootImage *pattern.Node
	for _, v := range qNodes {
		if canMap[p.Root][v] {
			rootImage = v
			break
		}
	}
	if rootImage == nil {
		return nil
	}
	m := containment.Mapping{p.Root: rootImage}
	var build func(u *pattern.Node) bool
	build = func(u *pattern.Node) bool {
		for _, c := range u.Children {
			img := pickChildImage(c, m[u], canMap[c])
			if img == nil {
				return false
			}
			m[c] = img
			if !build(c) {
				return false
			}
		}
		return true
	}
	if !build(p.Root) {
		return nil
	}
	return m
}

// mappingCompatible is condition (1) of a containment mapping: type-set
// inclusion, condition entailment, and the output node mapping onto the
// output node (a non-output node may map anywhere).
func mappingCompatible(u, v *pattern.Node) bool {
	if u.Star && !v.Star {
		return false
	}
	return u.TypesSubsetOf(v) && v.CondsEntail(u)
}

// pickChildImage returns a feasible image (per row) of the pattern child c
// correctly related to the candidate image v of c's parent, or nil.
func pickChildImage(c *pattern.Node, v *pattern.Node, row map[*pattern.Node]bool) *pattern.Node {
	if c.Edge == pattern.Child {
		for _, w := range v.Children {
			if w.Edge == pattern.Child && row[w] {
				return w
			}
		}
		return nil
	}
	for w := range row {
		if v.IsAncestorOf(w) {
			return w
		}
	}
	return nil
}
