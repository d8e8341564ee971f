package oracle

import (
	"math/big"

	"tpq/internal/data"
	"tpq/internal/pattern"
)

// BindingsMap returns, for every pattern node, the data nodes it binds to
// in at least one embedding of p into f, in document order. It is the
// literal two-pass reading of the embedding definition on per-node
// boolean slices with full-forest scans: bottom-up, sat(u) holds the data
// nodes whose subtree embeds subtree(u) with u ↦ v; top-down, each node's
// bindings keep only the nodes of sat(u) lying under a bound image of its
// parent with the right edge relationship. The answer set of p is the
// entry of its output node.
func BindingsMap(p *pattern.Pattern, f *data.Forest) map[*pattern.Node][]*data.Node {
	if p == nil || p.Root == nil || f == nil || f.Size() == 0 {
		return map[*pattern.Node][]*data.Node{}
	}
	nodes := f.Nodes()
	n := len(nodes)

	// sat[u][id] — computed bottom-up over the pattern.
	sat := make(map[*pattern.Node][]bool)
	var up func(u *pattern.Node)
	up = func(u *pattern.Node) {
		for _, c := range u.Children {
			up(c)
		}
		s := make([]bool, n)
		// hasDesc[c], hasChild[c] per data node, derived from sat[c].
		type kidSets struct {
			kid               *pattern.Node
			hasChild, hasDesc []bool
		}
		kids := make([]kidSets, 0, len(u.Children))
		for _, c := range u.Children {
			ks := kidSets{kid: c}
			if c.Edge == pattern.Child {
				ks.hasChild = make([]bool, n)
				for _, v := range nodes {
					if v.Parent != nil && sat[c][v.ID] {
						ks.hasChild[v.Parent.ID] = true
					}
				}
			} else {
				// hasDesc(v) = any child ch with sat[c][ch] or hasDesc(ch).
				// Propagate bottom-up by walking preorder in reverse.
				ks.hasDesc = make([]bool, n)
				for i := n - 1; i >= 0; i-- {
					v := nodes[i]
					if v.Parent != nil && (sat[c][v.ID] || ks.hasDesc[v.ID]) {
						ks.hasDesc[v.Parent.ID] = true
					}
				}
			}
			kids = append(kids, ks)
		}
		for _, v := range nodes {
			if !Admits(u, v) {
				continue
			}
			ok := true
			for _, ks := range kids {
				if ks.kid.Edge == pattern.Child {
					if !ks.hasChild[v.ID] {
						ok = false
						break
					}
				} else if !ks.hasDesc[v.ID] {
					ok = false
					break
				}
			}
			s[v.ID] = ok
		}
		sat[u] = s
	}
	up(p.Root)

	// Top-down restriction.
	bindSet := make(map[*pattern.Node][]bool)
	bindSet[p.Root] = sat[p.Root]
	var down func(u *pattern.Node)
	down = func(u *pattern.Node) {
		bu := bindSet[u]
		for _, c := range u.Children {
			bc := make([]bool, n)
			if c.Edge == pattern.Child {
				for _, v := range nodes {
					if bu[v.ID] {
						for _, ch := range v.Children {
							if sat[c][ch.ID] {
								bc[ch.ID] = true
							}
						}
					}
				}
			} else {
				// under[v]: v lies strictly below some bound image of u.
				// Propagate top-down in preorder.
				under := make([]bool, n)
				for _, v := range nodes {
					if v.Parent != nil && (bu[v.Parent.ID] || under[v.Parent.ID]) {
						under[v.ID] = true
					}
				}
				for _, v := range nodes {
					if under[v.ID] && sat[c][v.ID] {
						bc[v.ID] = true
					}
				}
			}
			bindSet[c] = bc
			down(c)
		}
	}
	down(p.Root)

	out := make(map[*pattern.Node][]*data.Node, len(bindSet))
	for u, set := range bindSet {
		var list []*data.Node
		for _, v := range nodes {
			if set[v.ID] {
				list = append(list, v)
			}
		}
		out[u] = list
	}
	return out
}

// CountEmbeddingsMap returns the number of distinct embeddings of p into
// f — full assignments, not distinct answers — on nested maps with
// full-forest scans: emb(u, v), the number of embeddings of subtree(u)
// with u ↦ v, is the product over u's children c of the sum of emb(c, w)
// over the valid images w under v, and the total sums emb(root, v) over
// every v.
func CountEmbeddingsMap(p *pattern.Pattern, f *data.Forest) *big.Int {
	total := big.NewInt(0)
	if p == nil || p.Root == nil || f == nil || f.Size() == 0 {
		return total
	}
	nodes := f.Nodes()
	n := len(nodes)

	emb := make(map[*pattern.Node][]*big.Int)
	var up func(u *pattern.Node)
	up = func(u *pattern.Node) {
		for _, c := range u.Children {
			up(c)
		}
		row := make([]*big.Int, n)

		// For each child, precompute per data node the sum of its subtree
		// counts over valid images: children sums for c-edges, subtree
		// sums for d-edges (computed bottom-up over the data).
		type kidSum struct {
			kid  *pattern.Node
			sums []*big.Int // indexed by candidate parent image
		}
		kids := make([]kidSum, 0, len(u.Children))
		for _, c := range u.Children {
			ks := kidSum{kid: c, sums: make([]*big.Int, n)}
			for i := range ks.sums {
				ks.sums[i] = big.NewInt(0)
			}
			if c.Edge == pattern.Child {
				for _, v := range nodes {
					if v.Parent != nil {
						ks.sums[v.Parent.ID].Add(ks.sums[v.Parent.ID], emb[c][v.ID])
					}
				}
			} else {
				// descSum(v) = Σ over proper descendants w of emb(c, w):
				// propagate child subtree totals bottom-up in reverse
				// preorder. below(v) = emb(c,v) + descSum(v); descSum(v) =
				// Σ_children below(ch).
				below := make([]*big.Int, n)
				for i := n - 1; i >= 0; i-- {
					v := nodes[i]
					below[v.ID] = new(big.Int).Add(emb[c][v.ID], ks.sums[v.ID])
					if v.Parent != nil {
						ks.sums[v.Parent.ID].Add(ks.sums[v.Parent.ID], below[v.ID])
					}
				}
			}
			kids = append(kids, ks)
		}

		for _, v := range nodes {
			if !Admits(u, v) {
				row[v.ID] = big.NewInt(0)
				continue
			}
			prod := big.NewInt(1)
			for _, ks := range kids {
				prod.Mul(prod, ks.sums[v.ID])
				if prod.Sign() == 0 {
					break
				}
			}
			row[v.ID] = prod
		}
		emb[u] = row
	}
	up(p.Root)

	for _, v := range nodes {
		total.Add(total, emb[p.Root][v.ID])
	}
	return total
}

// Admits reports whether data node v meets pattern node u's local
// requirements: it carries every type u requires (primary and extra) and
// its attributes satisfy every value condition of u. It is the
// references' own copy of the test match/stream compiles into admission
// rows, so a defect there cannot hide from the references; tests use it
// as their brute-force admission.
func Admits(u *pattern.Node, v *data.Node) bool {
	if !v.HasType(u.Type) {
		return false
	}
	for _, t := range u.Extra {
		if !v.HasType(t) {
			return false
		}
	}
	for _, c := range u.Conds {
		val, ok := v.Attrs[c.Attr]
		if !ok || !c.Holds(val) {
			return false
		}
	}
	return true
}
