package match

import (
	"math/big"

	"tpq/internal/pattern"
)

// CountEmbeddings returns the number of distinct embeddings of p into the
// indexed forest — not just distinct answers. Each embedding is a full
// assignment of pattern nodes to data nodes; the count can be exponential
// in the pattern size, so it is returned as a big integer.
//
// The dynamic program runs bottom-up over the pattern: emb(u, v) — the
// number of embeddings of subtree(u) with u ↦ v — is the product over u's
// children c of the sum of emb(c, w) over the valid images w under v. The
// total is the sum of emb(root, v) over all v.
//
// Rows are flat slices indexed by pattern preorder ID and data node ID; a
// nil cell means zero, so only cells actually reached by candidate images
// (drawn from idx) are materialized. oracle.CountEmbeddingsMap is the
// full-scan reference it is checked against.
func CountEmbeddings(p *pattern.Pattern, idx *ForestIndex) *big.Int {
	total := big.NewInt(0)
	if p == nil || p.Root == nil || idx == nil || idx.forest.Size() == 0 {
		return total
	}
	nodes := idx.forest.Nodes()
	n := len(nodes)
	pIdx := pattern.NewExecIndex(p)
	k := pIdx.Size()

	// emb[ui][vID] — nil means zero embeddings.
	emb := make([][]*big.Int, k)

	// addTo accumulates x (nil or zero skipped) into sums[i] in place.
	addTo := func(sums []*big.Int, i int, x *big.Int) {
		if x == nil || x.Sign() == 0 {
			return
		}
		if sums[i] == nil {
			sums[i] = new(big.Int).Set(x)
		} else {
			sums[i].Add(sums[i], x)
		}
	}

	// Reverse preorder: children before parents.
	for ui := k - 1; ui >= 0; ui-- {
		u := pIdx.NodeAt(ui)
		row := make([]*big.Int, n)
		uEnd := pIdx.SubtreeEnd(ui)

		// For each child, the per-data-node sum of its counts over valid
		// images: child sums for c-edges, subtree sums for d-edges.
		var kidSums [][]*big.Int
		for ci := ui + 1; ci <= uEnd; ci = pIdx.SubtreeEnd(ci) + 1 {
			sums := make([]*big.Int, n)
			cRow := emb[ci]
			if pIdx.NodeAt(ci).Edge == pattern.Child {
				for vi, x := range cRow {
					if x != nil && nodes[vi].Parent != nil {
						addTo(sums, nodes[vi].Parent.ID, x)
					}
				}
			} else {
				// sums[v] = Σ over proper descendants w of emb(c, w). In
				// reverse preorder every node's own sum is final before it
				// is folded into its parent's, so one pass suffices.
				for vi := n - 1; vi >= 0; vi-- {
					if par := nodes[vi].Parent; par != nil {
						addTo(sums, par.ID, cRow[vi])
						addTo(sums, par.ID, sums[vi])
					}
				}
			}
			kidSums = append(kidSums, sums)
		}

		for _, v := range idx.Candidates(u) {
			prod := big.NewInt(1)
			for _, sums := range kidSums {
				s := sums[v.ID]
				if s == nil {
					prod = nil
					break
				}
				prod.Mul(prod, s)
			}
			if prod != nil && prod.Sign() != 0 {
				row[v.ID] = prod
			}
		}
		emb[ui] = row
	}

	for _, x := range emb[0] {
		if x != nil {
			total.Add(total, x)
		}
	}
	return total
}
