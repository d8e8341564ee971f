package chase

import (
	"sync"

	"tpq/internal/bitset"
	"tpq/internal/pattern"
)

// This file is the engine's type alphabet at run time and the memory the
// minimization kernels run in. A plan numbers its closed set's types
// 0..k-1 (Plan.typeID); Flatten numbers a query's other types k, k+1, …
// in a table that lives for one run, so request input never grows a
// process-wide table. A miss flattens its query once: the
// unsatisfiability check, the CDM sweep, the chase and the CIM engine all
// work on that layout — the pattern's preorder (pattern.Preorder:
// ordinals, subtree ends, parents) plus each ordinal's symbols — and
// carve the rest of their state from the scratch's buffers, which one
// sync.Pool of *Scratch recycles across runs.
//
// The chase writes its witnesses (§5.2) into the layout, not into the
// pattern: a witness is an ordinal whose Nodes entry is nil, placed in
// preorder after the permanent subtree of the node it hangs under. Its
// edge kind is in Up (its parent below a c-edge, -1 below a d-edge) and
// its symbols are all plan symbols. A permanent ordinal's symbols start
// with its node's own types, which a mapped node requires; the types the
// chase associated with it follow, capabilities of an image only.

// Scratch is the working memory of one minimization run. Take it with
// GetScratch at the start of the run and give it back with Release at
// the end; it is never shared between concurrent runs, and nothing read
// from it may be used after Release.
type Scratch struct {
	plan *Plan

	// The query's layout: Nodes[i] is the node of preorder ordinal i (nil
	// at a witness), End[i] the last ordinal of its subtree and Parent[i]
	// its parent's ordinal, -1 at the root; Syms(i) are its symbols and
	// Own(i) the leading ones that are its node's own types.
	layout
	spare layout // the chase writes the augmented layout here, then swaps
	nsym  int32
	local map[pattern.Type]int32 // this run's outside types
	tmpls [][]witness            // per ordinal: the witnesses the chase hangs under it

	words []bitset.Word
	ints  []int32
	flags []bool
}

// layout is a flattened query: the preorder arrays plus each ordinal's
// symbols (syms[symOff[i]:symOff[i+1]]), of which the first own[i] are
// its node's own types.
type layout struct {
	pattern.Preorder
	symOff, syms, own []int32
}

// maxPooled bounds each buffer a pooled scratch keeps. A run that grows
// one past it drops its scratch at Release, so one large query cannot
// pin memory in the pool.
const maxPooled = 1 << 14

var scratchPool = sync.Pool{New: func() any {
	return &Scratch{local: make(map[pattern.Type]int32)}
}}

// GetScratch takes a scratch from the pool for a run numbering types by
// pl's alphabet. pl may be nil: every type is then request-local.
func GetScratch(pl *Plan) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.plan = pl
	return s
}

// Release returns s to the pool, clearing its node and type references,
// or drops it when a buffer grew past maxPooled.
func (s *Scratch) Release() {
	for _, c := range [...]int{cap(s.Nodes), cap(s.spare.Nodes), cap(s.syms), cap(s.spare.syms), len(s.local), cap(s.words), cap(s.ints), cap(s.flags)} {
		if c > maxPooled {
			return
		}
	}
	clear(s.Nodes[:cap(s.Nodes)])
	clear(s.spare.Nodes[:cap(s.spare.Nodes)])
	clear(s.tmpls[:cap(s.tmpls)])
	if len(s.local) > 0 {
		clear(s.local)
	}
	s.plan = nil
	scratchPool.Put(s)
}

// Plan returns the plan whose alphabet numbers the scratch's symbols,
// nil when every type is request-local.
func (s *Scratch) Plan() *Plan { return s.plan }

// Flatten lays p out in preorder and lists each node's symbols in Types()
// order, all of them its own: the plan's number for a set type, otherwise
// the number the run's table gives the name, the next free one above the
// plan's range on its first occurrence.
func (s *Scratch) Flatten(p *pattern.Pattern) {
	s.Fill(p)
	s.symOff, s.syms, s.own = s.symOff[:0], s.syms[:0], s.own[:0]
	if len(s.local) > 0 {
		clear(s.local)
	}
	s.nsym = 0
	if s.plan != nil {
		s.nsym = int32(len(s.plan.setTypes))
	}
	for _, n := range s.Nodes {
		s.symOff = append(s.symOff, int32(len(s.syms)))
		s.syms = append(s.syms, s.symbol(n.Type))
		for _, t := range n.Extra {
			s.syms = append(s.syms, s.symbol(t))
		}
		s.own = append(s.own, int32(1+len(n.Extra)))
	}
	s.symOff = append(s.symOff, int32(len(s.syms)))
}

func (s *Scratch) symbol(t pattern.Type) int32 {
	if s.plan != nil {
		if id, ok := s.plan.typeID[t]; ok {
			return id
		}
	}
	id, ok := s.local[t]
	if !ok {
		id = s.nsym
		s.local[t] = id
		s.nsym++
	}
	return id
}

// Syms returns the symbols of ordinal i: its node's own types in Types()
// order, then the types the chase associated with it in ascending order.
func (s *Scratch) Syms(i int) []int32 { return s.syms[s.symOff[i]:s.symOff[i+1]] }

// Own returns the symbols of ordinal i's own types, the ones a node
// mapped onto an image requires of it: none at a witness.
func (s *Scratch) Own(i int) []int32 { return s.syms[s.symOff[i] : s.symOff[i]+s.own[i]] }

// Alphabet returns the number of symbols of the last Flatten: the plan's
// set types plus the query's distinct outside types.
func (s *Scratch) Alphabet() int { return int(s.nsym) }

// Keep renumbers the layout in place to the ordinals dead does not mark,
// in their order, and sets remap[i] to the new ordinal of ordinal i (-1
// when dead). The dead ordinals must form whole subtrees, as removals
// leave them.
func (s *Scratch) Keep(dead []bool, remap []int32) {
	m, off := int32(0), int32(0)
	for i := range s.Nodes {
		remap[i] = -1
		if dead[i] {
			continue
		}
		remap[i] = m
		parent := s.Parent[i]
		if parent >= 0 {
			parent = remap[parent]
		}
		up := int32(-1)
		if s.Up[i] >= 0 {
			up = parent
		}
		lo, hi := s.symOff[i], s.symOff[i+1]
		s.Nodes[m], s.Parent[m], s.Up[m], s.End[m], s.Kids[m], s.own[m] = s.Nodes[i], parent, up, m, 0, s.own[i]
		s.symOff[m] = off
		off += int32(copy(s.syms[off:], s.syms[lo:hi]))
		m++
	}
	// Children follow their parent, so one descending pass carries each
	// subtree's end up to its root.
	for j := m - 1; j > 0; j-- {
		p := s.Parent[j]
		s.End[p] = max(s.End[p], s.End[j])
		s.Kids[p]++
	}
	clear(s.Nodes[m:])
	s.Nodes, s.End, s.Parent, s.Up, s.Kids = s.Nodes[:m], s.End[:m], s.Parent[:m], s.Up[:m], s.Kids[:m]
	s.symOff, s.syms, s.own = append(s.symOff[:m], off), s.syms[:off], s.own[:m]
}

// Words, Ints and Flags return n zeroed cells of the scratch's storage.
// Each call hands out the same storage, so a kernel takes what it needs
// in one call and carves it.
func (s *Scratch) Words(n int) []bitset.Word {
	s.words = append(s.words[:0], make([]bitset.Word, n)...)
	return s.words
}

func (s *Scratch) Ints(n int) []int32 {
	s.ints = append(s.ints[:0], make([]int32, n)...)
	return s.ints
}

func (s *Scratch) Flags(n int) []bool {
	s.flags = append(s.flags[:0], make([]bool, n)...)
	return s.flags
}
