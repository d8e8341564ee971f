package cim

import (
	"slices"
	"time"

	"tpq/internal/bitset"
	"tpq/internal/chase"
	"tpq/internal/pattern"
	"tpq/internal/semijoin"
)

// This file is the images-table engine of Figure 3, built once per run
// and updated incrementally.
//
// The engine runs on the query's layout in a chase.Scratch — augmented by
// the chase for ACIM: nodes are preorder ordinals, types are symbols of
// the chase plan's alphabet, and every array and row below is carved from
// the scratch. The images tables are one bit matrix with a row per
// *permanent* ordinal over all ordinals: witnesses, most of an augmented
// query, may serve as images but are never requirements, so they are
// columns only. A node's initial row is the AND of its own symbols'
// membership rows (the types the chase added are capabilities only);
// it is pruned against its children's rows by one semijoin filter over
// the flattened pattern (semijoin.Target.Filter), which probes the row's
// members or lifts the children's rows, whichever costs less for that row.
//
// Tests never rebuild the tables. A *master* state, built once per run,
// holds the greatest fixpoint of Figure 3's pruning with no leaf excluded:
// pruning runs child to parent and children have larger ordinals, so one
// decreasing-ordinal pass computes it. Excluding leaf l changes l's row
// only, so a test masks l's subtree out of a copy of l's master row and
// walks up the root path, filtering each ancestor's master row against
// the one dirty row below it, with Figure 3's early exits: an empty row
// (not redundant) or v among its own images at a proper ancestor
// (redundant; master rows contain self, so the walk is short).
//
// A removal patches the master: the subtree's ordinals are tombstoned and
// its columns cleared, then one decreasing-ordinal sweep restores the
// fixpoint. Rows of non-ancestors can only shrink, so they are filtered in
// place against the children whose rows changed; ancestors lost a
// requirement and may grow, so they are recomputed from their initial
// rows against their children's final rows. The clear and the sweep visit
// the permanent ordinals only, kept in an ascending list. When more than
// half the ordinals are dead the layout is renumbered in place to the live
// ones, the worklist with it, and the master rebuilt (Stats.TablesBuilt).
//
// A removal detaches the removed node from the pattern. The run's own loop
// defers that to the end, and to each compaction, which drops the dead
// ordinals; the node-based methods detach at once.
//
// An Engine belongs to one run and is not safe for concurrent use.

// Engine is a run-scoped incremental minimization engine over one
// pattern. Create with NewEngine, drive with Pop/Test/Remove (or
// Candidates/Test/Remove, as the reference drivers of internal/oracle
// do), and Close when done to return its scratch to the pool.
type Engine struct {
	s     *chase.Scratch
	owned bool // s was taken by NewEngine, so Close releases it
	wl    worklist

	n         int             // ordinal count, including tombstones
	w         int             // words per row
	t         semijoin.Target // the flattened pattern as the images' target
	rowOf     []int32         // ordinal -> matrix row, -1 for witnesses
	perm      []int32         // the permanent ordinals, ascending
	memberRow []int32         // symbol -> membership row, -1 when no node requires it
	dead      []bool          // tombstoned ordinals
	deadN     int
	changed   []bool        // scratch for the repair sweep
	master    []bitset.Word // fully pruned image rows, one per permanent node
	member    []bitset.Word // live members carrying a required symbol
	starBits  bitset.Set    // live output nodes
	cur, next bitset.Set    // the rows a test derives
	tmp       bitset.Set    // the row a repair recomputes
	reqs      []semijoin.Req
	reqBuf    [8]semijoin.Req // reqs' first backing array

	removed  int
	tests    int
	built    int
	derived  int
	tablesNS int64
}

// NewEngine builds the master state for p — one full images-table
// construction — and returns an engine ready to test candidates. Types
// are numbered per run.
func NewEngine(p *pattern.Pattern, opts Options) *Engine {
	s := chase.GetScratch(nil)
	s.Flatten(p)
	e := newEngine(s, opts)
	e.owned = true
	return e
}

// newEngine builds the master state over the layout in s.
func newEngine(s *chase.Scratch, opts Options) *Engine {
	n, nsym := len(s.Nodes), s.Alphabet()
	ints := s.Ints(4*n + nsym)
	// Compaction only shrinks both counts, so these arrays keep their
	// place for the whole run.
	e := &Engine{s: s, rowOf: ints[2*n : 3*n], perm: ints[3*n : 3*n : 4*n], memberRow: ints[4*n:]}
	e.reqs = e.reqBuf[:0]
	e.build()
	e.wl.init(s.Nodes, opts.Order, ints[:n:n], ints[n:n:2*n], e.candidate)
	return e
}

// build constructs the master state over the layout: membership rows,
// initial image rows, and the exact pruning fixpoint in one decreasing-ID
// pass (children before parents).
func (e *Engine) build() {
	t0 := time.Now()
	s := e.s
	e.n, e.w = len(s.Nodes), bitset.WordsFor(len(s.Nodes))
	e.rowOf, e.memberRow = e.rowOf[:e.n], e.memberRow[:s.Alphabet()]
	e.t = semijoin.Target{Up: s.Up, End: s.End, Kids: s.Kids}
	for i := range e.memberRow {
		e.memberRow[i] = -1
	}
	e.perm = e.perm[:0]
	nMember := 0
	for i, v := range s.Nodes {
		e.rowOf[i] = -1
		if v == nil {
			continue
		}
		e.rowOf[i] = int32(len(e.perm))
		e.perm = append(e.perm, int32(i))
		for _, t := range s.Own(i) {
			if e.memberRow[t] < 0 {
				e.memberRow[t] = int32(nMember)
				nMember++
			}
		}
	}
	w, nPerm := e.w, len(e.perm)
	words := s.Words((nPerm + nMember + 4) * w)
	e.master, e.member = words[:nPerm*w], words[nPerm*w:(nPerm+nMember)*w]
	rows := words[(nPerm+nMember)*w:]
	e.starBits, e.cur, e.next, e.tmp = rows[:w], rows[w:2*w], rows[2*w:3*w], rows[3*w:]
	flags := s.Flags(2 * e.n)
	e.dead, e.changed, e.deadN = flags[:e.n], flags[e.n:], 0
	for i, v := range s.Nodes {
		if v != nil && v.Star {
			e.starBits.Add(i)
		}
		for _, t := range s.Syms(i) {
			if m := int(e.memberRow[t]); m >= 0 {
				bitset.Set(e.member[m*w : (m+1)*w]).Add(i)
			}
		}
	}
	for _, vi := range e.perm {
		e.initRow(int(vi), e.masterRow(int(vi)))
	}
	for i := nPerm - 1; i >= 0; i-- {
		vi := int(e.perm[i])
		e.filterRow(vi, e.masterRow(vi), nil)
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

// initRow writes permanent ordinal vi's initial (unpruned,
// unconstrained) image row: the word-parallel AND of its own types'
// membership rows, the output restriction, and the value-condition
// filter. A witness carries no conditions.
func (e *Engine) initRow(vi int, row bitset.Set) {
	v := e.s.Nodes[vi]
	own := e.s.Own(vi)
	row.CopyFrom(e.memberBits(own[0]))
	for _, t := range own[1:] {
		row.And(e.memberBits(t))
	}
	if v.Star {
		row.And(e.starBits)
	}
	if len(v.Conds) > 0 {
		for mi := row.NextSet(0); mi >= 0; mi = row.NextSet(mi + 1) {
			var have []pattern.Condition
			if m := e.s.Nodes[mi]; m != nil {
				have = m.Conds
			}
			if !pattern.Entails(have, v.Conds) {
				row.Remove(mi)
			}
		}
	}
}

// filterRow prunes row (node vi's candidate images) against the current
// rows of vi's live permanent children, through one semijoin filter. If
// only is non-nil, children not flagged in it are skipped — their rows
// are unchanged, so every candidate they supported is still supported.
// Returns whether any candidate was removed. It lifts rows in cur, which
// only a test uses.
func (e *Engine) filterRow(vi int, row bitset.Set, only []bool) bool {
	reqs := e.reqs[:0]
	for ci := vi + 1; ci <= int(e.s.End[vi]); ci = int(e.s.End[ci]) + 1 {
		if e.rowOf[ci] >= 0 && !e.dead[ci] && (only == nil || only[ci]) {
			reqs = append(reqs, semijoin.Req{Row: e.masterRow(ci), Child: e.s.Up[ci] >= 0})
		}
	}
	e.reqs = reqs
	return e.t.Filter(row, reqs, e.cur)
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
			next.CopyFrom(e.masterRow(vi))
			e.reqs = append(e.reqs[:0], semijoin.Req{Row: cur, Child: e.s.Up[di] >= 0})
			e.t.Filter(next, e.reqs, e.tmp)
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
func (e *Engine) Remove(l *pattern.Node) {
	lid := e.ordinal(l)
	l.Detach()
	e.remove(lid)
}

// remove tombstones the subtree at ordinal lid, witnesses included, and
// patches the master state; the caller detaches the node.
func (e *Engine) remove(lid int) {
	e.wl.drop(lid)
	end := int(e.s.End[lid])
	for j := lid; j <= end; j++ {
		if !e.dead[j] {
			e.dead[j] = true
			e.deadN++
		}
	}
	if parent := int(e.s.Parent[lid]); parent >= 0 && e.candidate(parent) {
		// The removal turned the parent into an effective leaf; it cannot
		// have been tested before, having had a permanent child until now.
		e.wl.add(parent)
	}
	e.removed++
	e.patch(lid)
}

// candidate reports whether ordinal i may be tested for redundancy: a
// permanent, non-output node with no live permanent child (its
// witnesses are not requirements).
func (e *Engine) candidate(i int) bool {
	if v := e.s.Nodes[i]; v == nil || v.Star {
		return false
	}
	for c := i + 1; c <= int(e.s.End[i]); c = int(e.s.End[c]) + 1 {
		if e.s.Nodes[c] != nil && !e.dead[c] {
			return false
		}
	}
	return true
}

// detach applies the removals to the pattern: it cuts loose each dead
// permanent ordinal whose parent is live, the root of a removed subtree,
// then drops the cut nodes from each such parent's child list in one
// pass, so a wide node pays for its list once, not once per removal. A
// node the node-based Remove detached already is left as it is.
func (e *Engine) detach() {
	cut := e.changed // free outside the repair sweep
	clear(cut)
	for _, vi := range e.perm {
		if p := e.s.Parent[vi]; e.dead[vi] && p >= 0 && !e.dead[p] {
			e.s.Nodes[vi].Parent = nil
			cut[p] = true
		}
	}
	for _, vi := range e.perm {
		if cut[vi] {
			n := e.s.Nodes[vi]
			n.Children = slices.DeleteFunc(n.Children, func(c *pattern.Node) bool { return c.Parent != n })
		}
	}
}

// patch updates the master after the subtree at ordinal lid was
// tombstoned: clear its columns everywhere, then run one decreasing-ID
// repair sweep to restore the pruning fixpoint.
func (e *Engine) patch(lid int) {
	t0 := time.Now()
	end := int(e.s.End[lid])
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
	for _, vi := range e.perm {
		if e.dead[vi] {
			continue
		}
		row := e.masterRow(int(vi))
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
	for i := len(e.perm) - 1; i >= 0; i-- {
		vi := int(e.perm[i])
		if e.dead[vi] {
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
		if e.filterRow(vi, row, changed) {
			changed[vi] = true
		}
	}
	e.tablesNS += time.Since(t0).Nanoseconds()
}

// compact applies the removals so far, renumbers the layout in place to
// the live ordinals, carries the worklist over, and rebuilds the master
// state.
func (e *Engine) compact() {
	e.detach()
	remap := e.rowOf
	e.s.Keep(e.dead, remap)
	e.wl.renumber(remap)
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

// Close returns the engine's scratch to the pool if NewEngine took it.
// The engine must not be used afterwards.
func (e *Engine) Close() {
	if e.owned {
		e.s.Release()
	}
	e.s = nil
}
