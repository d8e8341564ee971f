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
// appear in no constraint, so a query's other types are skipped.
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
func compileUnsat(cs *ics.Set, setTypes []pattern.Type, id map[pattern.Type]int) *unsatRows {
	if !cs.HasForbidden() {
		return nil
	}
	k := len(setTypes)
	u := &unsatRows{words: bitset.WordsFor(k), empty: bitset.New(k), rows: make([]typeRows, k)}
	for t := range cs.EmptyTypes() {
		u.empty.Add(id[t])
	}
	for i, t := range setTypes {
		r := typeRows{eff: bitset.New(k), below: bitset.New(k), forbidChild: bitset.New(k), forbidDesc: bitset.New(k)}
		r.eff.Add(i)
		for _, c := range cs.CoTargets(t) {
			r.eff.Add(id[c])
		}
		for m := r.eff.NextSet(0); m >= 0; m = r.eff.NextSet(m + 1) {
			r.below.Add(m)
			for _, d := range cs.DescTargets(setTypes[m]) {
				r.below.Add(id[d])
			}
			for _, b := range cs.ForbidChildTargets(setTypes[m]) {
				r.forbidChild.Add(id[b])
			}
			for _, b := range cs.ForbidDescTargets(setTypes[m]) {
				r.forbidDesc.Add(id[b])
			}
		}
		u.rows[i] = r
	}
	return u
}

// Unsatisfiable reports whether p can never produce an answer on any
// database satisfying the plan's constraint set. It walks p once, top
// down, carrying the union of the ancestors' forbidDesc rows. A node
// conflicts when its effective row meets the empty types, when the
// carried row meets its below row (an ancestor forbids, as a descendant,
// one of its types or a type it requires below itself), or when it is a
// c-child whose effective row meets its parent's forbidChild row.
func (pl *Plan) Unsatisfiable(p *pattern.Pattern) bool {
	if pl.unsat == nil || p == nil || p.Root == nil {
		return false
	}
	w := &unsatWalk{plan: pl, buf: make([]bitset.Word, 2*pl.unsat.words, 32*pl.unsat.words)}
	return w.conflict(p.Root, 0)
}

// unsatWalk is the state of one check. buf holds two rows per depth d:
// the union of the forbidDesc rows above depth d, then the forbidChild
// row of the parent; siblings share their slot.
type unsatWalk struct {
	plan *Plan
	buf  []bitset.Word
}

func (w *unsatWalk) conflict(n *pattern.Node, d int) bool {
	u := w.plan.unsat
	k := u.words
	if need := (d + 2) * 2 * k; len(w.buf) < need {
		w.buf = append(w.buf, make([]bitset.Word, need-len(w.buf))...)
	}
	carried, parentFC := bitset.Set(w.buf[2*d*k:(2*d+1)*k]), bitset.Set(w.buf[(2*d+1)*k:(2*d+2)*k])
	nextCarried, nextFC := bitset.Set(w.buf[(2*d+2)*k:(2*d+3)*k]), bitset.Set(w.buf[(2*d+3)*k:(2*d+4)*k])
	nextCarried.CopyFrom(carried)
	nextFC.Reset()
	child := n.Parent != nil && n.Edge == pattern.Child
	for i := -1; i < len(n.Extra); i++ {
		t := n.Type
		if i >= 0 {
			t = n.Extra[i]
		}
		id, ok := w.plan.typeID[t]
		if !ok {
			continue
		}
		r := &u.rows[id]
		if r.eff.Intersects(u.empty) || carried.Intersects(r.below) || (child && parentFC.Intersects(r.eff)) {
			return true
		}
		nextCarried.Or(r.forbidDesc)
		nextFC.Or(r.forbidChild)
	}
	for _, c := range n.Children {
		if w.conflict(c, d+1) {
			return true
		}
	}
	return false
}
