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
// process-wide table. The chase, the CDM sweep, the CIM engine and the
// unsatisfiability check work on the flattened query — the pattern's
// preorder layout (pattern.Preorder: ordinals, subtree ends, parents)
// plus each node's symbols — and carve the rest of their state from the
// scratch's buffers, which one sync.Pool of *Scratch recycles across runs.

// Scratch is the working memory of one minimization run. Take it with
// GetScratch at the start of the run and give it back with Release at
// the end; it is never shared between concurrent runs, and nothing read
// from it may be used after Release.
type Scratch struct {
	plan *Plan

	// Flatten's output: the query's layout (Nodes[i] is the node of
	// preorder ordinal i, End[i] the last ordinal of its subtree and
	// Parent[i] its parent's ordinal, -1 at the root), and Syms(i), the
	// symbols of ordinal i.
	pattern.Preorder
	symOff []int32
	syms   []int32
	nsym   int32
	local  map[pattern.Type]int32 // this run's outside types

	words []bitset.Word
	ints  []int32
	flags []bool
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
	for _, c := range [...]int{cap(s.Nodes), cap(s.syms), len(s.local), cap(s.words), cap(s.ints), cap(s.flags)} {
		if c > maxPooled {
			return
		}
	}
	clear(s.Nodes[:cap(s.Nodes)])
	if len(s.local) > 0 {
		clear(s.local)
	}
	s.plan = nil
	scratchPool.Put(s)
}

// Flatten lays p out in preorder and lists each node's symbols in Types()
// order: the plan's number for a set type, otherwise the number the run's
// table gives the name, the next free one above the plan's range on its
// first occurrence.
func (s *Scratch) Flatten(p *pattern.Pattern) {
	s.Fill(p)
	s.symOff, s.syms = s.symOff[:0], s.syms[:0]
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

// Syms returns the symbols of ordinal i, in its node's Types() order.
func (s *Scratch) Syms(i int) []int32 { return s.syms[s.symOff[i]:s.symOff[i+1]] }

// Alphabet returns the number of symbols of the last Flatten: the plan's
// set types plus the query's distinct outside types.
func (s *Scratch) Alphabet() int { return int(s.nsym) }

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
