// Package cim implements constraint-independent minimization of tree
// pattern queries (Section 4 of the paper, Algorithm CIM).
//
// A node of a query Q is redundant iff there is an endomorphism on Q (a
// containment mapping Q → Q) that is not the identity on that node
// (Proposition 4.1). CIM repeatedly finds a redundant leaf and deletes it —
// a maximal elimination ordering (MEO) — which by Lemmas 4.1-4.3 and
// Theorem 4.1 always reaches the unique minimal equivalent query regardless
// of the order in which leaves are tried.
//
// The leaf-redundancy test is the images-table procedure of Theorem 4.2 and
// Figure 3: associate with the leaf l the set of its potential images (all
// other label-compatible nodes) and with every other node v its potential
// images (all label-compatible nodes, including v itself), then prune the
// sets bottom-up — an image s of v survives only if every child of v has an
// image appropriately related to s (a c-child needs an image that is a
// c-child of s; a d-child needs an image that is a proper descendant of s).
// The leaf is redundant iff the root's image set is non-empty after
// pruning. Two early exits from Figure 3 apply while walking up from the
// leaf: an empty image set anywhere means "not redundant", and v ∈
// images(v) at a proper ancestor v means "redundant" (the endomorphism can
// be the identity outside subtree(v)).
//
// Witnesses (the temporary nodes the augmentation step of ACIM inserts,
// ordinals of the layout the chase writes) are handled natively: they may
// serve as images but are never requirements — a mapped node's witness
// children do not constrain the mapping, because the integrity
// constraints that created them hold at any image — and they are never
// candidates for elimination.
//
// The package has one implementation of the test, the incremental engine
// of incremental.go. The nested-map reference it is checked against, and
// the naive CIM of the ablation figures, live in internal/oracle.
package cim

import (
	"time"

	"tpq/internal/chase"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

// Stats reports what a minimization run did and where the time went.
type Stats struct {
	// Removed is the number of (permanent) nodes eliminated.
	Removed int
	// Tests is the number of leaf-redundancy tests executed.
	Tests int
	// TablesBuilt counts full images-table constructions: one per master
	// build of the incremental engine (initial plus compactions), one per
	// test for the nested-map reference kernel in internal/oracle.
	TablesBuilt int
	// TablesDerived counts per-leaf tables the incremental engine derived
	// from a master by interval masking instead of rebuilding. The
	// amortization ratio of a run is TablesDerived : TablesBuilt.
	TablesDerived int
	// TablesTime is the time spent building, deriving and patching the
	// images and ancestor/descendant (preorder interval) tables across all
	// redundancy tests. The paper's Figure 7(b) reports this fraction for
	// ACIM.
	TablesTime time.Duration
	// TotalTime is the wall-clock time of the minimization, up to
	// applying its removals to the pattern (the Compact phase).
	TotalTime time.Duration
}

// record folds a finished run into tr: TotalTime under the CIM phase
// plus the work counters; nil tr is free.
func (st Stats) record(tr *trace.Trace) {
	tr.AddDur(trace.CIM, st.TotalTime)
	tr.Add(trace.Tests, st.Tests)
	tr.Add(trace.TablesBuilt, st.TablesBuilt)
	tr.Add(trace.TablesDerived, st.TablesDerived)
}

// Options tune a minimization run.
type Options struct {
	// Order, if non-nil, fixes the order in which candidate leaves are
	// tried: lower rank first. Nodes missing from the map rank last. The
	// minimal result is independent of the order (Theorem 4.1); tests use
	// this to exercise different maximal elimination orderings.
	Order map[*pattern.Node]int

	// Trace, if non-nil, receives the run's CIM-phase span and work
	// counters (tests, tables built/derived). Nil costs one predictable
	// branch at the end of the run.
	Trace *trace.Trace
}

// Minimize returns the unique minimal query equivalent to p, leaving p
// untouched.
func Minimize(p *pattern.Pattern) *pattern.Pattern {
	q := p.Clone()
	MinimizeInPlace(q, Options{})
	return q
}

// MinimizeInPlace removes every redundant node of p and returns statistics
// about the run. The output node is never removed. The run uses the
// incremental images-table engine: master state built once, per-leaf
// tables derived from it (see incremental.go).
func MinimizeInPlace(p *pattern.Pattern, opts Options) Stats {
	s := chase.GetScratch(nil)
	defer s.Release()
	s.Flatten(p)
	return MinimizeLayout(s, opts)
}

// MinimizeLayout is the CIM core: it minimizes the query laid out in s —
// flattened, and augmented by the chase for ACIM — removing every
// redundant permanent node; witnesses are never removed, save with a
// removed node's subtree. It records the run under opts.Trace's CIM phase
// and, under its Compact phase, applying the removals to the pattern,
// which it detaches at the end (and before each compaction).
func MinimizeLayout(s *chase.Scratch, opts Options) (st Stats) {
	start := time.Now()
	defer func() { st.record(opts.Trace) }()
	if len(s.Nodes) == 0 {
		st.TotalTime = time.Since(start)
		return st
	}
	e := newEngine(s, opts)
	defer e.Close()
	for l := e.wl.pop(); l >= 0; l = e.wl.pop() {
		if e.test(l) {
			e.remove(l)
		}
	}
	st = e.Stats()
	st.TotalTime = time.Since(start)
	sp := opts.Trace.Start(trace.Compact)
	e.detach()
	sp.End()
	return st
}

// RedundantLeaf reports whether l, a leaf of p, is redundant. It is the
// entry point of Figure 3, run on a one-shot engine.
func RedundantLeaf(p *pattern.Pattern, l *pattern.Node) bool {
	e := NewEngine(p, Options{})
	defer e.Close()
	return e.Test(l)
}
