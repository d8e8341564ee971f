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
// The engine runs on the pattern flattened into a pooled chase.Scratch:
// nodes are preorder ordinals, types are symbols of the chase plan's
// alphabet, and every array and row below is carved from the scratch. The
// images tables are one bit matrix with a row per *permanent* node over
// all ordinals: temporary witnesses, most of an augmented query, may serve
// as images but are never requirements, so they are columns only. A
// node's initial row is the AND of its required symbols' membership rows;
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
// half the ordinals are dead the pattern is flattened afresh, the worklist
// renumbered, and the master rebuilt (Stats.TablesBuilt).
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

	n         int             // ordinal count, including tombstones
	w         int             // words per row
	t         semijoin.Target // the flattened pattern as the images' target
	rowOf     []int32         // ordinal -> matrix row, -1 for temporaries
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
// are numbered per run; see MinimizeOnPlan for the plan's alphabet.
func NewEngine(p *pattern.Pattern, opts Options) *Engine { return newEngine(p, nil, opts) }

func newEngine(p *pattern.Pattern, pl *chase.Plan, opts Options) *Engine {
	s := chase.GetScratch(pl)
	s.Flatten(p)
	n, nsym := len(s.Nodes), s.Alphabet()
	ints := s.Ints(4*n + nsym)
	// Compaction only shrinks both counts, so these arrays keep their
	// place for the whole run.
	e := &Engine{s: s, p: p, rowOf: ints[2*n : 3*n], perm: ints[3*n : 3*n : 4*n], memberRow: ints[4*n:]}
	e.reqs = e.reqBuf[:0]
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
	e.t = semijoin.Target{Up: s.Up, End: s.End, Kids: s.Kids}
	for i := range e.memberRow {
		e.memberRow[i] = -1
	}
	e.perm = e.perm[:0]
	nMember := 0
	for i, v := range s.Nodes {
		e.rowOf[i] = -1
		if v.Temp {
			continue
		}
		e.rowOf[i] = int32(len(e.perm))
		e.perm = append(e.perm, int32(i))
		for j, t := range s.Syms(i) {
			if (j == 0 || !slices.Contains(v.TempExtra, v.Extra[j-1])) && e.memberRow[t] < 0 {
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
		if v.Star {
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

// initRow writes node vi's initial (unpruned, unconstrained) image row:
// the word-parallel AND of its required types' membership rows, the
// output restriction, and the value-condition filter.
func (e *Engine) initRow(vi int, row bitset.Set) {
	v := e.s.Nodes[vi]
	syms := e.s.Syms(vi)
	row.CopyFrom(e.memberBits(syms[0]))
	for j, t := range syms[1:] {
		if slices.Contains(v.TempExtra, v.Extra[j]) {
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
// rows of vi's live permanent children, through one semijoin filter. If
// only is non-nil, children not flagged in it are skipped — their rows
// are unchanged, so every candidate they supported is still supported.
// Returns whether any candidate was removed. It lifts rows in cur, which
// only a test uses.
func (e *Engine) filterRow(vi int, row bitset.Set, only []bool) bool {
	reqs := e.reqs[:0]
	for ci := vi + 1; ci <= int(e.s.End[vi]); ci = int(e.s.End[ci]) + 1 {
		if e.rowOf[ci] >= 0 && !e.dead[ci] && (only == nil || only[ci]) {
			reqs = append(reqs, semijoin.Req{Row: e.masterRow(ci), Child: e.s.Nodes[ci].Edge == pattern.Child})
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
			e.reqs = append(e.reqs[:0], semijoin.Req{Row: cur, Child: e.s.Nodes[di].Edge == pattern.Child})
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
