package cim

import (
	"time"

	"tpq/internal/bitset"
	"tpq/internal/pattern"
)

// This file is the images-table engine of Figure 3, built once per run
// and updated incrementally.
//
// The pattern is exec-indexed (dense preorder IDs, subtree intervals,
// per-label candidate lists — no node-keyed hash maps) and the images
// tables are one flat bit matrix with a row per *permanent* pattern node,
// each row a bitset over all node IDs. Temporary witness nodes — the
// overwhelming majority of an augmented query — appear only as columns:
// they may serve as images but are never requirements, so they need no
// rows. A node's initial image row is the word-parallel AND of the
// per-type membership rows of its required types; a d-child's "has an
// image below s" check is a single IntersectsRange probe. Children are
// enumerated by interval walking (first child of i is i+1, the next
// sibling of c starts at SubtreeEnd(c)+1).
//
// A failed test leaves the pattern untouched and a successful removal
// only clears one contiguous preorder interval, so rebuilding the tables
// per candidate leaf would repeat almost all of the work. The engine
// instead builds a *master* state once per run: the exec index, the
// type/star membership rows, and the fully pruned image rows of the
// unconstrained pattern — the greatest fixpoint of the Figure 3 pruning
// step with no leaf excluded. Because the pruning dependency is strictly
// child-to-parent and children occupy larger preorder IDs, one
// decreasing-ID pass computes that fixpoint exactly.
//
// Per-leaf tests are then derived, not rebuilt. Excluding leaf l's
// subtree changes the initial row of l only, so the constrained fixpoint
// can differ from the master only on l's row and the rows of l's
// ancestors — the dirty frontier is exactly the root path. The derived
// test masks l's subtree interval out of a copy of l's master row and
// walks up, re-filtering each ancestor's master row against the one dirty
// child below it; the sibling subtrees keep their master rows, which the
// ancestor's master row has already been pruned against. Figure 3's early
// exits apply unchanged (empty row: not redundant; v in images(v) at a
// proper ancestor: redundant — and master rows always contain self, the
// identity endomorphism, so the walk usually exits within a step or two).
//
// A successful removal patches the master in place instead of rebuilding
// it: the removed subtree's columns are cleared from the membership rows
// and every surviving image row (ordinal-stable interval deletion — IDs
// do not shift, the exec index tombstones the interval), then one
// decreasing-ID repair sweep restores the fixpoint. Rows of non-ancestors
// can only shrink (their requirement sets are unchanged and their initial
// rows lost columns), so they are re-filtered in place and only against
// children whose rows actually changed; rows of the removed leaf's
// ancestors can also GROW (the removal deleted a requirement below them),
// so they are recomputed from their initial rows against the final rows
// of their children — which the decreasing-ID order has already
// finalized. When more than half the ordinals are tombstones the index is
// compacted and the master rebuilt (counted in Stats.TablesBuilt).
//
// An Engine belongs to one run and is not safe for concurrent use.

// Engine is a run-scoped incremental minimization engine over one
// pattern. Create with NewEngine, drive with Pop/Test/Remove (or
// Candidates/Test/Remove, as the reference drivers of internal/oracle
// do), and Close when done to return the master state to the arena.
type Engine struct {
	a  *bitset.Arena
	wl *worklist

	idx      *pattern.Index
	n        int                         // ordinal count, including tombstones
	rowOf    []int32                     // ordinal -> matrix row, -1 for temporaries
	id       map[*pattern.Node]int       // permanent node -> ordinal
	typeBits map[pattern.Type]bitset.Set // live members carrying a type
	starBits bitset.Set                  // live output nodes
	master   *bitset.Matrix              // fully pruned image rows
	changed  []bool                      // scratch for the repair sweep

	removed  int
	tests    int
	built    int
	derived  int
	tablesNS int64
}

// NewEngine builds the master state for p — one full images-table
// construction — and returns an engine ready to test candidates.
func NewEngine(p *pattern.Pattern, opts Options) *Engine {
	a := opts.Arena
	if a == nil {
		a = &defaultArena
	}
	e := &Engine{a: a}
	e.wl = newWorklist(p, opts.Order)
	e.build(pattern.NewExecIndex(p))
	return e
}

// build constructs the master state over the given exec index: membership
// rows, initial image rows, and the exact pruning fixpoint in one
// decreasing-ID pass (children before parents).
func (e *Engine) build(idx *pattern.Index) {
	t0 := time.Now()
	e.idx = idx
	e.n = idx.Size()
	e.rowOf = make([]int32, e.n)
	e.id = make(map[*pattern.Node]int)
	e.typeBits = make(map[pattern.Type]bitset.Set)
	nPerm := 0
	for i, v := range idx.Order {
		if v.Temp {
			e.rowOf[i] = -1
			continue
		}
		e.rowOf[i] = int32(nPerm)
		e.id[v] = i
		nPerm++
	}
	e.starBits = e.a.Get(e.n)
	for i, v := range idx.Order {
		if v.Star {
			e.starBits.Add(i)
		}
	}
	e.master = bitset.NewMatrix(e.a, nPerm, e.n)
	e.changed = make([]bool, e.n)
	for vi, v := range idx.Order {
		if v.Temp {
			continue
		}
		e.initRow(vi, e.master.Row(int(e.rowOf[vi])))
	}
	for vi := e.n - 1; vi >= 0; vi-- {
		if e.rowOf[vi] < 0 || !idx.Alive(vi) {
			continue
		}
		e.filterRow(vi, e.master.Row(int(e.rowOf[vi])), nil)
	}
	e.built++
	e.tablesNS += time.Since(t0).Nanoseconds()
}

// memberBits returns the live members carrying type t, built lazily and
// patched in place on removals.
func (e *Engine) memberBits(t pattern.Type) bitset.Set {
	if s, ok := e.typeBits[t]; ok {
		return s
	}
	s := e.a.Get(e.n)
	for _, mi := range e.idx.Candidates(t) {
		if e.idx.Alive(mi) {
			s.Add(mi)
		}
	}
	e.typeBits[t] = s
	return s
}

// initRow writes node vi's initial (unpruned, unconstrained) image row:
// the word-parallel AND of its required types' membership rows, the
// output restriction, and the value-condition filter.
func (e *Engine) initRow(vi int, row bitset.Set) {
	v := e.idx.NodeAt(vi)
	row.CopyFrom(e.memberBits(v.Type))
	for _, t := range v.Extra {
		if typeIn(v.TempExtra, t) {
			continue // augmentation extras are capabilities, not obligations
		}
		row.And(e.memberBits(t))
	}
	if v.Star {
		row.And(e.starBits)
	}
	if len(v.Conds) > 0 {
		for mi := row.NextSet(0); mi >= 0; mi = row.NextSet(mi + 1) {
			if !e.idx.NodeAt(mi).CondsEntail(v) {
				row.Remove(mi)
			}
		}
	}
}

// filterRow prunes row (node vi's candidate images) against the current
// rows of vi's live permanent children. If only is non-nil, children not
// flagged in it are skipped — their rows are unchanged, so every
// candidate they supported is still supported. Returns whether any
// candidate was removed.
func (e *Engine) filterRow(vi int, row bitset.Set, only []bool) bool {
	end := e.idx.SubtreeEnd(vi)
	removedAny := false
	for si := row.NextSet(0); si >= 0; si = row.NextSet(si + 1) {
		for ci := vi + 1; ci <= end; ci = e.idx.SubtreeEnd(ci) + 1 {
			if e.rowOf[ci] < 0 || !e.idx.Alive(ci) {
				continue
			}
			if only != nil && !only[ci] {
				continue
			}
			c := e.idx.NodeAt(ci)
			if !hasImageUnderDense(c.Edge, ci, si, e.master.Row(int(e.rowOf[ci])), e.idx) {
				row.Remove(si)
				removedAny = true
				break
			}
		}
	}
	return removedAny
}

// Pop returns the next candidate leaf in MEO rank order, or nil when the
// run is complete.
func (e *Engine) Pop() *pattern.Node { return e.wl.pop() }

// Candidates returns the untested candidate leaves in MEO rank order
// without consuming them; the caller resolves each entry it tests with
// Remove or MarkNonRedundant.
func (e *Engine) Candidates() []*pattern.Node { return e.wl.snapshot() }

// Test reports whether candidate leaf l is redundant, deriving the
// per-leaf images table from the master instead of rebuilding it. It
// leaves the master unchanged.
func (e *Engine) Test(l *pattern.Node) bool {
	lid := e.id[l]
	t0 := time.Now()
	cur := e.a.Get(e.n)
	cur.CopyFrom(e.master.Row(int(e.rowOf[lid])))
	cur.RemoveRange(lid, e.idx.SubtreeEnd(lid))
	dt := time.Since(t0).Nanoseconds()

	res, decided := false, false
	if !cur.Any() {
		res, decided = false, true
	}
	var next bitset.Set
	if !decided {
		next = e.a.Get(e.n)
		di := lid
		for vi := e.idx.ParentID(lid); vi >= 0; vi = e.idx.ParentID(vi) {
			d := e.idx.NodeAt(di)
			next.CopyFrom(e.master.Row(int(e.rowOf[vi])))
			for si := next.NextSet(0); si >= 0; si = next.NextSet(si + 1) {
				if !hasImageUnderDense(d.Edge, di, si, cur, e.idx) {
					next.Remove(si)
				}
			}
			if !next.Any() {
				res, decided = false, true
				break
			}
			if vi != 0 && next.Has(vi) {
				// subtree(vi) maps into itself with vi fixed; extend with
				// the identity outside subtree(vi).
				res, decided = true, true
				break
			}
			cur, next = next, cur
			di = vi
		}
		if !decided {
			res = true // root reached with a non-empty row
		}
		e.a.Put(next)
	}
	e.a.Put(cur)

	e.tests++
	e.derived++
	e.tablesNS += dt
	return res
}

// MarkNonRedundant records a negative verdict: l leaves the candidate
// pool for good (enhancement 1 of Section 4).
func (e *Engine) MarkNonRedundant(l *pattern.Node) { e.wl.drop(l) }

// Remove commits a removal whose verdict the caller knows to be current
// (the minimization loop calls it right after a positive Test). It
// detaches l and patches the master state.
func (e *Engine) Remove(l *pattern.Node) {
	lid := e.id[l]
	parent := l.Parent
	l.Detach() // temporary children go with it
	e.wl.drop(l)
	e.wl.noteRemoved(parent)
	e.removed++
	e.patch(lid)
}

// patch updates the master after the subtree at ordinal lid was detached:
// tombstone the interval, clear its columns everywhere, then run one
// decreasing-ID repair sweep to restore the pruning fixpoint.
func (e *Engine) patch(lid int) {
	t0 := time.Now()
	end := e.idx.SubtreeEnd(lid)
	e.idx.RemoveSubtree(lid)
	if e.idx.DeadCount() > e.idx.LiveSize() {
		// More tombstones than live nodes: compact the ordinals and rebuild.
		e.releaseState()
		e.build(e.idx.Compact())
		return
	}
	for _, s := range e.typeBits {
		s.RemoveRange(lid, end)
	}
	e.starBits.RemoveRange(lid, end)

	changed := e.changed
	for i := range changed {
		changed[i] = false
	}
	for vi := 0; vi < e.n; vi++ {
		if e.rowOf[vi] < 0 || !e.idx.Alive(vi) {
			continue
		}
		row := e.master.Row(int(e.rowOf[vi]))
		if row.IntersectsRange(lid, end) {
			row.RemoveRange(lid, end)
			changed[vi] = true
		}
	}

	// Repair sweep, children before parents. Ancestors of the removed
	// subtree lost a requirement below them, so their rows may grow: they
	// are recomputed from initial rows against their children's final
	// rows. Everyone else can only shrink and is re-filtered in place,
	// only against children that changed.
	tmp := e.a.Get(e.n)
	for vi := e.n - 1; vi >= 0; vi-- {
		if e.rowOf[vi] < 0 || !e.idx.Alive(vi) {
			continue
		}
		row := e.master.Row(int(e.rowOf[vi]))
		if vi < lid && e.idx.SubtreeEnd(vi) >= end {
			e.initRow(vi, tmp)
			e.filterRow(vi, tmp, nil)
			if !tmp.Equal(row) {
				changed[vi] = true
				row.CopyFrom(tmp)
			}
			continue
		}
		childChanged := false
		vend := e.idx.SubtreeEnd(vi)
		for ci := vi + 1; ci <= vend; ci = e.idx.SubtreeEnd(ci) + 1 {
			if e.rowOf[ci] >= 0 && e.idx.Alive(ci) && changed[ci] {
				childChanged = true
				break
			}
		}
		if childChanged && e.filterRow(vi, row, changed) {
			changed[vi] = true
		}
	}
	e.a.Put(tmp)
	e.tablesNS += time.Since(t0).Nanoseconds()
}

// Stats returns the counters accumulated so far. TablesTime covers master
// builds, removal patches, and the per-test derivation (row masking);
// TablesBuilt counts full constructions (initial build plus compactions),
// TablesDerived the per-leaf tables derived by masking.
func (e *Engine) Stats() Stats {
	return Stats{
		Removed:       e.removed,
		Tests:         e.tests,
		TablesBuilt:   e.built,
		TablesDerived: e.derived,
		TablesTime:    time.Duration(e.tablesNS),
	}
}

// releaseState returns the master state's storage to the arena.
func (e *Engine) releaseState() {
	for _, s := range e.typeBits {
		e.a.Put(s)
	}
	e.typeBits = nil
	if e.starBits != nil {
		e.a.Put(e.starBits)
		e.starBits = nil
	}
	if e.master != nil {
		e.master.Release(e.a)
		e.master = nil
	}
}

// Close returns the engine's storage to the arena. The engine must not be
// used afterwards.
func (e *Engine) Close() { e.releaseState() }

// defaultArena recycles images-table storage across minimization runs
// when the caller does not supply an arena.
var defaultArena bitset.Arena

func typeIn(ts []pattern.Type, t pattern.Type) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// hasImageUnderDense reports whether the pattern child with ID ci (edge
// kind given) has a surviving image correctly related to the candidate
// image with ID si of its parent.
func hasImageUnderDense(edge pattern.EdgeKind, ci, si int, cImages bitset.Set, idx *pattern.Index) bool {
	end := idx.SubtreeEnd(si)
	if edge == pattern.Child {
		for wi := si + 1; wi <= end; wi = idx.SubtreeEnd(wi) + 1 {
			if idx.NodeAt(wi).Edge == pattern.Child && cImages.Has(wi) {
				return true
			}
		}
		return false
	}
	return cImages.IntersectsRange(si+1, end)
}
