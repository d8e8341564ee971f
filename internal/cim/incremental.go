package cim

import (
	"time"

	"tpq/internal/bitset"
	"tpq/internal/chase"
	"tpq/internal/pattern"
)

// This file is the images-table engine of Figure 3, built once per run
// and updated incrementally.
//
// The engine runs on the pattern flattened into a pooled chase.Scratch:
// nodes are dense preorder ordinals with subtree intervals and parent
// ordinals, types are symbols of the chase plan's alphabet (all
// request-local without a plan), and every array, row and matrix below
// is carved from the scratch — no node- or type-keyed map is built. The
// images tables are one flat bit matrix with a row per *permanent*
// pattern node, each row a bitset over all ordinals. Temporary witness
// nodes — the overwhelming majority of an augmented query — appear only
// as columns: they may serve as images but are never requirements, so
// they need no rows. A node's initial image row is the word-parallel AND
// of the membership rows of its required symbols; a d-child's "has an
// image below s" check is a single IntersectsRange probe. Children are
// enumerated by interval walking (first child of i is i+1, the next
// sibling of c starts at End[c]+1).
//
// A failed test leaves the pattern untouched and a successful removal
// only clears one contiguous preorder interval, so rebuilding the tables
// per candidate leaf would repeat almost all of the work. The engine
// instead builds a *master* state once per run: the flattened pattern,
// the symbol/star membership rows, and the fully pruned image rows of the
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
// and every surviving image row (ordinal-stable interval deletion —
// ordinals do not shift, the interval is flagged dead), then one
// decreasing-ID repair sweep restores the fixpoint. Rows of non-ancestors
// can only shrink (their requirement sets are unchanged and their initial
// rows lost columns), so they are re-filtered in place and only against
// children whose rows actually changed; rows of the removed leaf's
// ancestors can also GROW (the removal deleted a requirement below them),
// so they are recomputed from their initial rows against the final rows
// of their children — which the decreasing-ID order has already
// finalized. When more than half the ordinals are dead the pattern is
// flattened afresh — the live nodes keep their relative order, so the
// worklist is renumbered in place — and the master rebuilt (counted in
// Stats.TablesBuilt).
//
// An Engine belongs to one run and is not safe for concurrent use.

// Engine is a run-scoped incremental minimization engine over one
// pattern. Create with NewEngine, drive with Pop/Test/Remove (or
// Candidates/Test/Remove, as the reference drivers of internal/oracle
// do), and Close when done to return its scratch to the pool.
type Engine struct {
	s  *chase.Scratch
	p  *pattern.Pattern
	wl worklist

	n         int     // ordinal count, including tombstones
	w         int     // words per row
	rowOf     []int32 // ordinal -> matrix row, -1 for temporaries
	memberRow []int32 // symbol -> membership row, -1 when no node requires it
	dead      []bool  // tombstoned ordinals
	deadN     int
	changed   []bool        // scratch for the repair sweep
	master    []bitset.Word // fully pruned image rows, one per permanent node
	member    []bitset.Word // live members carrying a required symbol
	starBits  bitset.Set    // live output nodes
	cur, next bitset.Set    // the rows a test derives
	tmp       bitset.Set    // the row a repair recomputes

	removed  int
	tests    int
	built    int
	derived  int
	tablesNS int64
}

// NewEngine builds the master state for p — one full images-table
// construction — and returns an engine ready to test candidates. Types
// are numbered per run; see MinimizeOnPlan for the plan's alphabet.
func NewEngine(p *pattern.Pattern, opts Options) *Engine { return newEngine(p, nil, opts) }

func newEngine(p *pattern.Pattern, pl *chase.Plan, opts Options) *Engine {
	s := chase.GetScratch(pl)
	s.Flatten(p)
	n, nsym := len(s.Nodes), s.Alphabet()
	ints := s.Ints(3*n + nsym)
	// Compaction only shrinks both counts, so these arrays keep their
	// place for the whole run.
	e := &Engine{s: s, p: p, rowOf: ints[2*n : 3*n], memberRow: ints[3*n:]}
	e.wl.init(s.Nodes, opts.Order, ints[:n:n], ints[n:n:2*n])
	e.build()
	return e
}

// build constructs the master state over the freshly flattened pattern:
// membership rows, initial image rows, and the exact pruning fixpoint in
// one decreasing-ID pass (children before parents).
func (e *Engine) build() {
	t0 := time.Now()
	s := e.s
	e.n, e.w = len(s.Nodes), bitset.WordsFor(len(s.Nodes))
	e.rowOf, e.memberRow = e.rowOf[:e.n], e.memberRow[:s.Alphabet()]
	for i := range e.memberRow {
		e.memberRow[i] = -1
	}
	nPerm, nMember := 0, 0
	for i, v := range s.Nodes {
		e.rowOf[i] = -1
		if v.Temp {
			continue
		}
		e.rowOf[i] = int32(nPerm)
		nPerm++
		for j, t := range s.Syms(i) {
			if (j == 0 || !typeIn(v.TempExtra, v.Extra[j-1])) && e.memberRow[t] < 0 {
				e.memberRow[t] = int32(nMember)
				nMember++
			}
		}
	}
	w := e.w
	words := s.Words((nPerm + nMember + 4) * w)
	e.master, e.member = words[:nPerm*w], words[nPerm*w:(nPerm+nMember)*w]
	rows := words[(nPerm+nMember)*w:]
	e.starBits, e.cur, e.next, e.tmp = rows[:w], rows[w:2*w], rows[2*w:3*w], rows[3*w:]
	flags := s.Flags(2 * e.n)
	e.dead, e.changed, e.deadN = flags[:e.n], flags[e.n:], 0
	for i, v := range s.Nodes {
		if v.Star {
			e.starBits.Add(i)
		}
		for _, t := range s.Syms(i) {
			if m := int(e.memberRow[t]); m >= 0 {
				bitset.Set(e.member[m*w : (m+1)*w]).Add(i)
			}
		}
	}
	for vi, v := range s.Nodes {
		if !v.Temp {
			e.initRow(vi, e.masterRow(vi))
		}
	}
	for vi := e.n - 1; vi >= 0; vi-- {
		if e.rowOf[vi] >= 0 {
			e.filterRow(vi, e.masterRow(vi), nil)
		}
	}
	e.built++
	e.tablesNS += time.Since(t0).Nanoseconds()
}

// masterRow returns the master row of permanent ordinal vi.
func (e *Engine) masterRow(vi int) bitset.Set {
	r := int(e.rowOf[vi]) * e.w
	return e.master[r : r+e.w]
}

// memberBits returns the live members carrying required symbol t.
func (e *Engine) memberBits(t int32) bitset.Set {
	m := int(e.memberRow[t]) * e.w
	return e.member[m : m+e.w]
}

// initRow writes node vi's initial (unpruned, unconstrained) image row:
// the word-parallel AND of its required types' membership rows, the
// output restriction, and the value-condition filter.
func (e *Engine) initRow(vi int, row bitset.Set) {
	v := e.s.Nodes[vi]
	syms := e.s.Syms(vi)
	row.CopyFrom(e.memberBits(syms[0]))
	for j, t := range syms[1:] {
		if typeIn(v.TempExtra, v.Extra[j]) {
			continue // augmentation extras are capabilities, not obligations
		}
		row.And(e.memberBits(t))
	}
	if v.Star {
		row.And(e.starBits)
	}
	if len(v.Conds) > 0 {
		for mi := row.NextSet(0); mi >= 0; mi = row.NextSet(mi + 1) {
			if !e.s.Nodes[mi].CondsEntail(v) {
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
	end := int(e.s.End[vi])
	removedAny := false
	for si := row.NextSet(0); si >= 0; si = row.NextSet(si + 1) {
		for ci := vi + 1; ci <= end; ci = int(e.s.End[ci]) + 1 {
			if e.rowOf[ci] < 0 || e.dead[ci] {
				continue
			}
			if only != nil && !only[ci] {
				continue
			}
			if !e.hasImageUnder(e.s.Nodes[ci].Edge, si, e.masterRow(ci)) {
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
func (e *Engine) Pop() *pattern.Node {
	if i := e.wl.pop(); i >= 0 {
		return e.s.Nodes[i]
	}
	return nil
}

// Candidates returns the untested candidate leaves in MEO rank order
// without consuming them; the caller resolves each entry it tests with
// Remove or MarkNonRedundant.
func (e *Engine) Candidates() []*pattern.Node { return e.wl.snapshot(e.s.Nodes) }

// ordinal returns the ordinal of l, a live node of the pattern. The
// node-based methods resolve their argument with it; the run itself
// works on ordinals throughout.
func (e *Engine) ordinal(l *pattern.Node) int {
	for i, v := range e.s.Nodes {
		if v == l && !e.dead[i] {
			return i
		}
	}
	panic("cim: node is not a live node of the engine's pattern")
}

// Test reports whether candidate leaf l is redundant, deriving the
// per-leaf images table from the master instead of rebuilding it. It
// leaves the master unchanged.
func (e *Engine) Test(l *pattern.Node) bool { return e.test(e.ordinal(l)) }

func (e *Engine) test(lid int) bool {
	t0 := time.Now()
	cur, next := e.cur, e.next
	cur.CopyFrom(e.masterRow(lid))
	cur.RemoveRange(lid, int(e.s.End[lid]))
	dt := time.Since(t0).Nanoseconds()

	res := false
	if cur.Any() {
		res = true // unless the walk to the root empties a row
		di := lid
		for vi := int(e.s.Parent[lid]); vi >= 0; vi = int(e.s.Parent[vi]) {
			edge := e.s.Nodes[di].Edge
			next.CopyFrom(e.masterRow(vi))
			for si := next.NextSet(0); si >= 0; si = next.NextSet(si + 1) {
				if !e.hasImageUnder(edge, si, cur) {
					next.Remove(si)
				}
			}
			if !next.Any() {
				res = false
				break
			}
			if vi != 0 && next.Has(vi) {
				// subtree(vi) maps into itself with vi fixed; extend with
				// the identity outside subtree(vi).
				break
			}
			cur, next = next, cur
			di = vi
		}
	}

	e.tests++
	e.derived++
	e.tablesNS += dt
	return res
}

// MarkNonRedundant records a negative verdict: l leaves the candidate
// pool for good (enhancement 1 of Section 4).
func (e *Engine) MarkNonRedundant(l *pattern.Node) { e.wl.drop(e.ordinal(l)) }

// Remove commits a removal whose verdict the caller knows to be current
// (the minimization loop calls it right after a positive Test). It
// detaches l and patches the master state.
func (e *Engine) Remove(l *pattern.Node) { e.remove(e.ordinal(l)) }

func (e *Engine) remove(lid int) {
	e.s.Nodes[lid].Detach() // temporary children go with it
	e.wl.drop(lid)
	if parent := int(e.s.Parent[lid]); parent >= 0 && candidateLeaf(e.s.Nodes[parent]) {
		// The removal turned the parent into an effective leaf; it cannot
		// have been tested before, having had a permanent child until now.
		e.wl.add(parent)
	}
	e.removed++
	e.patch(lid)
}

// patch updates the master after the subtree at ordinal lid was detached:
// tombstone the interval, clear its columns everywhere, then run one
// decreasing-ID repair sweep to restore the pruning fixpoint.
func (e *Engine) patch(lid int) {
	t0 := time.Now()
	end := int(e.s.End[lid])
	for j := lid; j <= end; j++ {
		if !e.dead[j] {
			e.dead[j] = true
			e.deadN++
		}
	}
	if e.deadN > e.n-e.deadN {
		// More tombstones than live nodes: renumber the live ordinals and
		// rebuild.
		e.compact()
		return
	}
	for m := 0; m < len(e.member); m += e.w {
		bitset.Set(e.member[m:m+e.w]).RemoveRange(lid, end)
	}
	e.starBits.RemoveRange(lid, end)

	changed := e.changed
	clear(changed)
	for vi := 0; vi < e.n; vi++ {
		if e.rowOf[vi] < 0 || e.dead[vi] {
			continue
		}
		row := e.masterRow(vi)
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
	tmp := e.tmp
	for vi := e.n - 1; vi >= 0; vi-- {
		if e.rowOf[vi] < 0 || e.dead[vi] {
			continue
		}
		row := e.masterRow(vi)
		vend := int(e.s.End[vi])
		if vi < lid && vend >= end {
			e.initRow(vi, tmp)
			e.filterRow(vi, tmp, nil)
			if !tmp.Equal(row) {
				changed[vi] = true
				row.CopyFrom(tmp)
			}
			continue
		}
		childChanged := false
		for ci := vi + 1; ci <= vend; ci = int(e.s.End[ci]) + 1 {
			if e.rowOf[ci] >= 0 && !e.dead[ci] && changed[ci] {
				childChanged = true
				break
			}
		}
		if childChanged && e.filterRow(vi, row, changed) {
			changed[vi] = true
		}
	}
	e.tablesNS += time.Since(t0).Nanoseconds()
}

// compact renumbers the live ordinals in preorder — the order a fresh
// flatten of the pattern gives them — carries the worklist over, and
// rebuilds the master state.
func (e *Engine) compact() {
	remap := e.rowOf
	next := int32(0)
	for i := 0; i < e.n; i++ {
		remap[i] = -1
		if !e.dead[i] {
			remap[i] = next
			next++
		}
	}
	e.wl.renumber(remap)
	e.s.Flatten(e.p)
	e.build()
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

// Close returns the engine's scratch to the pool. The engine must not be
// used afterwards.
func (e *Engine) Close() {
	e.s.Release()
	e.s = nil
}

func typeIn(ts []pattern.Type, t pattern.Type) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// hasImageUnder reports whether a pattern child (edge kind given) with
// surviving images cImages has one correctly related to the candidate
// image with ID si of its parent.
func (e *Engine) hasImageUnder(edge pattern.EdgeKind, si int, cImages bitset.Set) bool {
	end := int(e.s.End[si])
	if edge == pattern.Child {
		for wi := si + 1; wi <= end; wi = int(e.s.End[wi]) + 1 {
			if e.s.Nodes[wi].Edge == pattern.Child && cImages.Has(wi) {
				return true
			}
		}
		return false
	}
	return cImages.IntersectsRange(si+1, end)
}
