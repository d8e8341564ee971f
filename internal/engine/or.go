package engine

import (
	"tpq/internal/acim"
	"tpq/internal/pattern"
)

// Absorption pruning for disjunctive minimization. The pipeline's
// theorems (4.1/5.1/5.3) cover conjunctive TPQs only, so a union is
// minimized per disjunct (the serving layer fans the disjuncts out over
// its worker pool, see internal/service) and then pruned here: a
// disjunct contained in another (under the constraints) contributes
// nothing to the union and is dropped. The result is equivalent to the
// input by construction — every kept disjunct is the minimization of an
// input disjunct, every dropped one is contained in a kept one — a
// certificate that does not rely on completeness of disjunct-wise union
// containment. Cross-disjunct rewriting (merging two disjuncts into one
// smaller pattern) is out of scope: containment beyond the conjunctive
// fragment changes complexity class (Gottlob, Koch & Schulz), so there
// is no uniqueness theorem to aim at there.

// AbsorbDisjuncts prunes every pattern contained (under m's constraints)
// in another: in a union, di ⊆ dj means di ∪ dj = dj. Isomorphic
// duplicates are collapsed first so the pairwise pass only sees distinct
// disjuncts; a mutually-containing pair (equivalent but not isomorphic)
// keeps its lexicographically smaller canonical form, making the result
// deterministic. Returns the kept patterns and the number dropped.
func AbsorbDisjuncts(ds []*pattern.Pattern, m *Minimizer) (kept []*pattern.Pattern, absorbed int) {
	type entry struct {
		pat   *pattern.Pattern
		canon string
	}
	uniq := make([]entry, 0, len(ds))
	seen := make(map[string]bool, len(ds))
	for _, p := range ds {
		c := p.Canonical()
		if seen[c] {
			absorbed++
			continue
		}
		seen[c] = true
		uniq = append(uniq, entry{p, c})
	}
	if len(uniq) == 1 {
		return []*pattern.Pattern{uniq[0].pat}, absorbed
	}
	// Type-alphabet prefilter: di ⊆ dj needs a homomorphism from dj into
	// the chased di, every typed node of dj landing on a node carrying
	// its type — and chasing can only introduce types that appear as a
	// constraint target. So a type of dj outside di's alphabet and the
	// target set rules the pair out without cloning di or building the
	// containment tables. Unions of disjuncts over different entity
	// types (the common shape) skip the whole quadratic pass this way.
	addable := map[pattern.Type]bool{}
	for _, c := range m.closed.Constraints() {
		addable[c.To] = true
	}
	types := make([]map[pattern.Type]bool, len(uniq))
	for i := range uniq {
		types[i] = uniq[i].pat.TypeSet()
	}
	mayContain := func(i, j int) bool { // can uniq[i] ⊆ uniq[j] hold?
		for t := range types[j] {
			if !types[i][t] && !addable[t] {
				return false
			}
		}
		return true
	}
	for i := range uniq {
		drop := false
		for j := range uniq {
			if i == j || !mayContain(i, j) || !acim.ContainedUnder(uniq[i].pat, uniq[j].pat, m.closed) {
				continue
			}
			// i ⊆ j. On mutual containment only the larger canon drops,
			// so exactly one of an equivalent pair survives.
			if !mayContain(j, i) || !acim.ContainedUnder(uniq[j].pat, uniq[i].pat, m.closed) || uniq[i].canon > uniq[j].canon {
				drop = true
				break
			}
		}
		if drop {
			absorbed++
			continue
		}
		kept = append(kept, uniq[i].pat)
	}
	return kept, absorbed
}
