package oracle

import (
	"fmt"
	"slices"
	"strings"

	"tpq/internal/chase"
	"tpq/internal/pattern"
)

// RenderMarked writes p, augmented by Augment with the marks w, in the
// one format RenderLayout also writes, so that the per-call chase's
// output and the plan's layout compare as strings: the same nodes in the
// same child order, with the same edge kinds, own and added types,
// witness marks, output marker and conditions. A node renders as
//
//	edge type{own extras}+{added types, sorted}~*?conds(children)
//
// with the edge left out at the root, ~ marking a witness, and each part
// present only when it applies.
func RenderMarked(p *pattern.Pattern, w *Witnesses) string {
	var sb strings.Builder
	var rec func(n *pattern.Node)
	rec = func(n *pattern.Node) {
		if n != p.Root {
			sb.WriteString(n.Edge.String())
		}
		sb.WriteString(string(n.Type))
		var own []string
		for _, t := range n.Extra {
			if !w.added(n, t) {
				own = append(own, string(t))
			}
		}
		if len(own) > 0 {
			fmt.Fprintf(&sb, "{%s}", strings.Join(own, ","))
		}
		if ts := w.Types[n]; len(ts) > 0 {
			added := make([]string, len(ts))
			for i, t := range ts {
				added[i] = string(t)
			}
			slices.Sort(added)
			fmt.Fprintf(&sb, "+{%s}", strings.Join(added, ","))
		}
		if w.witness(n) {
			sb.WriteByte('~')
		}
		if n.Star {
			sb.WriteByte('*')
		}
		if len(n.Conds) > 0 {
			fmt.Fprintf(&sb, "?%v", n.Conds)
		}
		for i, c := range n.Children {
			if i == 0 {
				sb.WriteByte('(')
			} else {
				sb.WriteByte(',')
			}
			rec(c)
		}
		if len(n.Children) > 0 {
			sb.WriteByte(')')
		}
	}
	if p != nil && p.Root != nil {
		rec(p.Root)
	}
	return sb.String()
}

// RenderLayout writes the query laid out in s, as the chase wrote it, in
// RenderMarked's format: it rebuilds the layout as a pattern — children
// from the subtree ends, edge kinds from Up, a fresh node per witness —
// with the marks the layout's own/added split gives. A node's own types
// are its Types(); the symbols after them, and a witness's, are the
// plan's. It panics when the layout's parents or child counts disagree
// with its subtree ends.
func RenderLayout(s *chase.Scratch) string {
	if len(s.Nodes) == 0 {
		return ""
	}
	var names []pattern.Type
	if pl := s.Plan(); pl != nil {
		names = pl.Constraints().Types() // the plan's symbols, in order
	}
	w := &Witnesses{Nodes: make(map[*pattern.Node]bool), Types: make(map[*pattern.Node][]pattern.Type)}
	var build func(i int) *pattern.Node
	build = func(i int) *pattern.Node {
		n, syms := &pattern.Node{}, s.Syms(i)
		if v := s.Nodes[i]; v != nil {
			n.Type, n.Extra, n.Star, n.Conds = v.Type, slices.Clone(v.Extra), v.Star, v.Conds
			syms = syms[len(s.Own(i)):]
		} else {
			n.Type, syms = names[syms[0]], syms[1:]
			w.Nodes[n] = true
		}
		for _, t := range syms {
			n.AddType(names[t])
			w.Types[n] = append(w.Types[n], names[t])
		}
		kids := 0
		for c := i + 1; c <= int(s.End[i]); c = int(s.End[c]) + 1 {
			if s.Parent[c] != int32(i) || s.Up[c] >= 0 && s.Up[c] != int32(i) {
				panic(fmt.Sprintf("oracle: layout ordinal %d lies below %d but names parent %d", c, i, s.Parent[c]))
			}
			edge := pattern.Descendant
			if s.Up[c] >= 0 {
				edge = pattern.Child
			}
			n.AddChild(edge, build(c))
			kids++
		}
		if int(s.Kids[i]) != kids {
			panic(fmt.Sprintf("oracle: layout ordinal %d counts %d children, has %d", i, s.Kids[i], kids))
		}
		return n
	}
	return RenderMarked(pattern.New(build(0)), w)
}
