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
// Temporary nodes (inserted by the augmentation step of ACIM, package
// acim) are handled natively: they may serve as images but are never
// requirements — a mapped node's temporary children do not constrain the
// mapping, because the integrity constraints that created them hold at any
// image — and they are never candidates for elimination.
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
	// TotalTime is the wall-clock time of the whole minimization.
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
// about the run. The output node and temporary nodes are never removed
// (temporary subtrees hanging under a removed node go with it). The run
// uses the incremental images-table engine: master state built once,
// per-leaf tables derived from it (see incremental.go).
func MinimizeInPlace(p *pattern.Pattern, opts Options) Stats {
	return MinimizeOnPlan(p, nil, opts)
}

// MinimizeOnPlan is MinimizeInPlace with p's types numbered by pl's
// alphabet, as the engine's ACIM phase runs it on a query augmented
// through pl: the set types are then looked up, not numbered per run.
// pl may be nil.
func MinimizeOnPlan(p *pattern.Pattern, pl *chase.Plan, opts Options) (st Stats) {
	start := time.Now()
	defer func() {
		st.TotalTime = time.Since(start)
		st.record(opts.Trace)
	}()

	if p == nil || p.Root == nil {
		return st
	}
	e := newEngine(p, pl, opts)
	defer e.Close()
	for l := e.wl.pop(); l >= 0; l = e.wl.pop() {
		if e.test(l) {
			e.remove(l)
		}
	}
	es := e.Stats()
	st.Removed, st.Tests = es.Removed, es.Tests
	st.TablesBuilt, st.TablesDerived = es.TablesBuilt, es.TablesDerived
	st.TablesTime = es.TablesTime
	return st
}

// RedundantLeaf reports whether l — an effective leaf of p (no permanent
// children) — is redundant. It is the entry point of Figure 3, run on a
// one-shot engine.
func RedundantLeaf(p *pattern.Pattern, l *pattern.Node) bool {
	e := NewEngine(p, Options{})
	defer e.Close()
	return e.Test(l)
}

// effectiveLeaf reports whether n has no permanent children. Temporary
// children are witnesses, not requirements, so a node whose children are
// all temporary is a leaf for minimization purposes.
func effectiveLeaf(n *pattern.Node) bool {
	for _, c := range n.Children {
		if !c.Temp {
			return false
		}
	}
	return true
}
