package chase

import (
	"tpq/internal/bitset"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// This file decides unsatisfiability under the forbidden constraints of
// the paper's Section 7, which take no part in minimization; it reads
// the same closed set as the chase, so it compiles into the same plan.
// internal/oracle's UnsatisfiableUnder, a pairwise reading of the same
// rules on the constraint set's maps, is the reference.

// unsatRows are the rows of the check over the set's own types, numbered
// by Plan.typeID, each one word per 64 types. Types outside the set
// appear in no constraint, so a query's other symbols are skipped.
type unsatRows struct {
	words int
	empty bitset.Set // EmptyTypes, computed once
	rows  []typeRows // by type ID
}

type typeRows struct {
	eff         bitset.Set // t plus CoTargets(t)
	below       bitset.Set // each member of eff plus its DescTargets
	forbidChild bitset.Set // the members' ForbidChildTargets
	forbidDesc  bitset.Set // the members' ForbidDescTargets
}

// compileUnsat builds the rows of a closed set, or nil when the set has
// no forbidden form: required and co-occurrence constraints alone can
// always be satisfied by growing the database.
func compileUnsat(cs *ics.Set, setTypes []pattern.Type, id map[pattern.Type]int32) *unsatRows {
	if !cs.HasForbidden() {
		return nil
	}
	k := len(setTypes)
	u := &unsatRows{words: bitset.WordsFor(k), empty: bitset.New(k), rows: make([]typeRows, k)}
	for t := range cs.EmptyTypes() {
		u.empty.Add(int(id[t]))
	}
	for i, t := range setTypes {
		r := typeRows{eff: bitset.New(k), below: bitset.New(k), forbidChild: bitset.New(k), forbidDesc: bitset.New(k)}
		r.eff.Add(i)
		for _, c := range cs.CoTargets(t) {
			r.eff.Add(int(id[c]))
		}
		for m := r.eff.NextSet(0); m >= 0; m = r.eff.NextSet(m + 1) {
			r.below.Add(m)
			for _, d := range cs.DescTargets(setTypes[m]) {
				r.below.Add(int(id[d]))
			}
			for _, b := range cs.ForbidChildTargets(setTypes[m]) {
				r.forbidChild.Add(int(id[b]))
			}
			for _, b := range cs.ForbidDescTargets(setTypes[m]) {
				r.forbidDesc.Add(int(id[b]))
			}
		}
		u.rows[i] = r
	}
	return u
}

// Unsatisfiable reports whether p can never produce an answer on any
// database satisfying the plan's constraint set: it flattens p into a
// pooled scratch and runs Scratch.Unsatisfiable.
func (pl *Plan) Unsatisfiable(p *pattern.Pattern) bool {
	if pl.unsat == nil || p == nil || p.Root == nil {
		return false
	}
	s := GetScratch(pl)
	defer s.Release()
	s.Flatten(p)
	return s.Unsatisfiable()
}

// Unsatisfiable reports whether the query flattened in s can never
// produce an answer on any database satisfying the constraint set of s's
// plan. It walks the layout once, in preorder, keeping two rows per node:
// the union of the forbidDesc rows of its and its ancestors' types, and
// the forbidChild row of its types. A node conflicts when its effective
// row meets the empty types, when its parent's carried row meets its
// below row (an ancestor forbids, as a descendant, one of its types or a
// type it requires below itself), or when it is a c-child whose effective
// row meets its parent's forbidChild row.
func (s *Scratch) Unsatisfiable() bool {
	if s.plan == nil || s.plan.unsat == nil {
		return false
	}
	u, k := s.plan.unsat, s.plan.unsat.words
	// Pair j+1 holds ordinal j's rows; pair 0, the root's parent, is empty.
	rows := s.Words(2 * k * (len(s.Nodes) + 1))
	row := func(j, half int) bitset.Set { return rows[(2*j+half)*k : (2*j+half+1)*k] }
	for i := range s.Nodes {
		par := int(s.Parent[i]) + 1
		carried, parentFC := row(par, 0), row(par, 1)
		desc, fc := row(i+1, 0), row(i+1, 1)
		desc.CopyFrom(carried)
		child := s.Up[i] >= 0
		for _, t := range s.Syms(i) {
			if int(t) >= len(u.rows) {
				continue // a type outside the set is in no constraint
			}
			r := &u.rows[t]
			if r.eff.Intersects(u.empty) || carried.Intersects(r.below) || (child && parentFC.Intersects(r.eff)) {
				return true
			}
			desc.Or(r.forbidDesc)
			fc.Or(r.forbidChild)
		}
	}
	return false
}
