package semijoin

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/pattern"
)

// ref is the pointer-walk definition of a target's two relations over its
// ordinals: cchild(b, a) when b is a c-child of a, desc(b, a) when b is a
// proper descendant of a.
type ref struct {
	name         string
	n            int
	target       Target
	cchild, desc func(b, a int) bool
	live         func(v int) bool     // not in a tombstoned subtree
	types        func(v int) []string // every type v carries
	alphabet     []string
}

// forestRef lays out a random forest of about size nodes, deep or wide.
func forestRef(rng *rand.Rand, size int) ref {
	var nodes, roots []*data.Node
	types := []string{"a", "b", "c"}
	for len(nodes) < size {
		v := data.NewNode(pattern.Type(types[rng.Intn(3)]))
		if rng.Intn(3) == 0 {
			v.AddType(pattern.Type(types[rng.Intn(3)]))
		}
		switch {
		case len(nodes) == 0 || rng.Intn(40) == 0:
			roots = append(roots, v)
		case rng.Intn(2) == 0:
			nodes[len(nodes)-1-rng.Intn(min(len(nodes), 4))].AddChild(v)
		default:
			nodes[rng.Intn(len(nodes))].AddChild(v)
		}
		nodes = append(nodes, v)
	}
	f := data.NewForest(roots...)
	ns := f.Nodes()
	up, end, kids := make([]int32, len(ns)), make([]int32, len(ns)), make([]int32, len(ns))
	for _, v := range ns {
		up[v.ID] = -1
		if v.Parent != nil {
			up[v.ID] = int32(v.Parent.ID)
		}
		end[v.ID] = int32(v.SubtreeEnd())
		kids[v.ID] = int32(len(v.Children))
	}
	return ref{
		n:      len(ns),
		name:   "forest",
		target: Target{Up: up, End: end, Kids: kids},
		cchild: func(b, a int) bool { return ns[b].Parent == ns[a] },
		desc:   func(b, a int) bool { return ns[a].IsAncestorOf(ns[b]) },
		live:   func(int) bool { return true },
		types: func(v int) []string {
			var out []string
			for _, t := range ns[v].Types {
				out = append(out, string(t))
			}
			return out
		},
		alphabet: types,
	}
}

// patternRef lays out a random pattern of size nodes with both edge kinds
// and extra types, then detaches a few subtrees as CIM's removals do: the
// layout keeps their ordinals as dead intervals, and no row holds them.
func patternRef(rng *rand.Rand, size int) ref {
	types := []string{"t0", "t1", "t2"}
	root := pattern.NewNode(pattern.Type(types[rng.Intn(3)]))
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		u := pattern.NewNode(pattern.Type(types[rng.Intn(3)]))
		if rng.Intn(3) == 0 {
			u.AddType(pattern.Type(types[rng.Intn(3)]))
		}
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		parent := nodes[rng.Intn(len(nodes))]
		if rng.Intn(2) == 0 {
			parent = nodes[len(nodes)-1-rng.Intn(min(len(nodes), 4))]
		}
		nodes = append(nodes, parent.AddChild(kind, u))
	}
	root.Star = true
	var l pattern.Preorder
	l.Fill(pattern.New(root))
	dead := make([]bool, len(l.Nodes))
	for k := rng.Intn(4); k > 0; k-- {
		d := 1 + rng.Intn(len(l.Nodes)-1)
		if dead[d] {
			continue
		}
		for j := d; j <= int(l.End[d]); j++ {
			dead[j] = true
		}
		l.Nodes[d].Detach()
	}
	ns := l.Nodes
	return ref{
		n:      len(ns),
		name:   "pattern",
		target: Target{Up: l.Up, End: l.End, Kids: l.Kids},
		cchild: func(b, a int) bool { return ns[b].Parent == ns[a] && ns[b].Edge == pattern.Child },
		desc:   func(b, a int) bool { return ns[a].IsAncestorOf(ns[b]) },
		live:   func(v int) bool { return !dead[v] },
		types: func(v int) []string {
			var out []string
			for _, t := range ns[v].Types() {
				out = append(out, string(t))
			}
			return out
		},
		alphabet: types,
	}
}

// row draws a row of live members: random, or the members carrying a type.
func (r ref) row(rng *rand.Rand) bitset.Set {
	s := bitset.New(r.n)
	ty := r.alphabet[rng.Intn(len(r.alphabet))]
	dense := rng.Intn(3) == 0
	for v := 0; v < r.n; v++ {
		if !r.live(v) {
			continue
		}
		if dense {
			if slices.Contains(r.types(v), ty) {
				s.Add(v)
			}
		} else if rng.Intn(4) == 0 {
			s.Add(v)
		}
	}
	return s
}

// brute returns the set of a in mask (all ordinals when mask is nil) for
// which some b in src relates to a by rel(b, a).
func (r ref) brute(mask, src bitset.Set, rel func(b, a int) bool) bitset.Set {
	out := bitset.New(r.n)
	for a := 0; a < r.n; a++ {
		if mask != nil && !mask.Has(a) {
			continue
		}
		for b := src.NextSet(0); b >= 0; b = src.NextSet(b + 1) {
			if rel(b, a) {
				out.Add(a)
				break
			}
		}
	}
	return out
}

func clone(s bitset.Set) bitset.Set { return append(bitset.Set(nil), s...) }

// TestPassesAgainstPointerWalk checks every pass, the image probe and the
// filter, with each side forced and with the choice, against the
// pointer-walk definitions, on random forests and on random patterns with
// both edge kinds, extra types and tombstoned subtrees. Rows span several
// words, so parents, children and intervals straddle word boundaries.
func TestPassesAgainstPointerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		var r ref
		if trial%2 == 0 {
			r = forestRef(rng, 2+rng.Intn(300))
		} else {
			r = patternRef(rng, 2+rng.Intn(200))
		}
		tg := r.target
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (%s, %d ordinals): %s", trial, r.name, r.n, fmt.Sprintf(format, args...))
		}
		mask, src := r.row(rng), r.row(rng)
		pristineMask, pristineSrc := clone(mask), clone(src)
		unwritten := func(pass string) {
			if !mask.Equal(pristineMask) || !src.Equal(pristineSrc) {
				fail("%s wrote an input it does not own", pass)
			}
		}
		parentOf := func(b, a int) bool { return r.cchild(a, b) }
		ancestorOf := func(b, a int) bool { return r.desc(a, b) }

		got := clone(src)
		tg.LiftChild(got, nil)
		if want := r.brute(nil, src, r.cchild); !got.Equal(want) {
			fail("LiftChild = %v, want %v", got, want)
		}
		want := r.brute(mask, src, r.desc)
		for _, alias := range []string{"fresh", "mask", "src"} {
			m, s, dst := clone(mask), clone(src), bitset.New(r.n)
			switch alias {
			case "mask":
				dst = m
			case "src":
				dst = s
			}
			tg.LiftDesc(dst, m, s, nil)
			if !dst.Equal(want) {
				fail("LiftDesc into the %s row = %v, want %v", alias, dst, want)
			}
		}
		got = clone(mask)
		tg.BelowChild(got, src, nil)
		if want := r.brute(src, mask, parentOf); !got.Equal(want) {
			fail("BelowChild = %v, want %v", got, want)
		}
		got = clone(mask)
		tg.BelowDesc(got, src, nil)
		if want := r.brute(src, mask, ancestorOf); !got.Equal(want) {
			fail("BelowDesc = %v, want %v", got, want)
		}
		unwritten("a pass")

		for v := 0; v < r.n; v++ {
			for _, child := range []bool{true, false} {
				rel := r.desc
				if child {
					rel = r.cchild
				}
				var want, got []int
				for b := src.NextSet(0); b >= 0; b = src.NextSet(b + 1) {
					if rel(b, v) {
						want = append(want, b)
					}
				}
				for b := tg.Image(src, v, v, child); b >= 0; b = tg.Image(src, v, b, child) {
					got = append(got, b)
				}
				if !slices.Equal(got, want) {
					fail("Image under %d (c-edge %v) = %v, want %v", v, child, got, want)
				}
			}
		}

		var reqs, pristine []Req
		for k := rng.Intn(4); k > 0; k-- {
			q := Req{Row: r.row(rng), Child: rng.Intn(2) == 0}
			reqs, pristine = append(reqs, q), append(pristine, Req{Row: clone(q.Row)})
		}
		want = clone(mask)
		for _, q := range reqs {
			rel := r.desc
			if q.Child {
				rel = r.cchild
			}
			want = r.brute(want, q.Row, rel)
		}
		for _, budget := range []int{0, math.MaxInt, rng.Intn(64 * len(mask) * (1 + len(reqs))), -1} {
			got := clone(mask)
			var removed bool
			if budget < 0 {
				removed = tg.Filter(got, reqs, bitset.New(r.n))
			} else {
				removed = tg.filter(got, reqs, bitset.New(r.n), budget)
			}
			if !got.Equal(want) {
				fail("filter at budget %d = %v, want %v", budget, got, want)
			}
			if removed != !want.Equal(mask) {
				fail("filter at budget %d reports removed %v, kept %v of %v", budget, removed, want, mask)
			}
		}
		unwritten("Filter")
		for i, q := range reqs {
			if !q.Row.Equal(pristine[i].Row) {
				fail("Filter wrote child row %d", i)
			}
		}
	}
}
