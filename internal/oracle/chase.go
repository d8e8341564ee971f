package oracle

import (
	"tpq/internal/chase"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// Augment applies the paper's restricted chase (§5.2) to p in place,
// marking every added node and type association temporary, and returns
// the number of nodes added. It computes everything per call — the closed
// set if cs is not closed, the wanted witness types, and one witness-chain
// template per type — where chase.Plan compiles the constraint-set part
// once and specializes it per query type set; the two must produce
// structurally identical patterns.
//
// A fresh witness is chased too: it receives its own co-occurrence types
// and required children, recursively, because a query node may have to
// map onto it. Recursion follows required edges only on acyclic-required
// sets, so witness chains are no longer than the number of mentioned
// types; on a cyclic set witnesses stay one level deep. The query types
// are p.TypeSet(), its permanent nodes' permanent types, so re-augmenting
// an augmented query adds nothing.
func Augment(p *pattern.Pattern, cs *ics.Set) int {
	if p == nil || p.Root == nil || cs == nil {
		return 0
	}
	if !cs.IsClosed() {
		cs = cs.Closure()
	}
	origTypes := p.TypeSet()
	origNodes := p.Nodes()
	deep := cs.AcyclicRequired()
	wanted := chase.WantedWitnessTypes(cs, origTypes)
	tmpls := &witnessTemplates{cs: cs, origTypes: origTypes, wanted: wanted, memo: make(map[pattern.Type]*witnessTemplate)}

	added := 0
	for _, n := range origNodes {
		if n.Temp {
			continue
		}
		// Co-occurrence types first, so the witness targets below see the
		// full type set. Only query types are associated: a required type
		// of a mapped node is always a query type.
		for _, t := range n.Types() {
			for _, b := range cs.CoTargets(t) {
				if origTypes[b] {
					n.AddType(b, true)
				}
			}
		}
		childT, descT := chase.WitnessTargets(cs, n.Types(), wanted, deep)
		for _, b := range childT {
			if w, isNew := ensureTempChild(n, pattern.Child, b); isNew {
				added++
				if deep {
					added += tmpls.instantiate(w)
				}
			}
		}
		for _, b := range descT {
			if w, isNew := ensureTempChild(n, pattern.Descendant, b); isNew {
				added++
				if deep {
					added += tmpls.instantiate(w)
				}
			}
		}
	}
	return added
}

// witnessTemplate is the chase result below a fresh witness of one type —
// a function of the type alone, since witnesses start with a single type:
// the temporary co-occurrence types it receives and the witness children
// it spawns, each with its own template.
type witnessTemplate struct {
	extras   []pattern.Type
	children []witnessChild
}

type witnessChild struct {
	edge pattern.EdgeKind
	typ  pattern.Type
	sub  *witnessTemplate
}

type witnessTemplates struct {
	cs        *ics.Set
	origTypes map[pattern.Type]bool
	wanted    map[pattern.Type]bool
	memo      map[pattern.Type]*witnessTemplate
	building  map[pattern.Type]bool
}

// template builds (or returns) the chain template for witness type t:
// associate the query co-occurrence types, then spawn the witness targets
// of the resulting type set. Templates are only built on acyclic-required
// sets; the building guard stops a required-edge cycle regardless.
func (ts *witnessTemplates) template(t pattern.Type) *witnessTemplate {
	if m, ok := ts.memo[t]; ok {
		return m
	}
	if ts.building[t] {
		return nil
	}
	if ts.building == nil {
		ts.building = make(map[pattern.Type]bool)
	}
	ts.building[t] = true
	w := &witnessTemplate{}
	types := []pattern.Type{t}
	for _, b := range ts.cs.CoTargets(t) {
		if ts.origTypes[b] && !typeIn(types, b) {
			w.extras = append(w.extras, b)
			types = append(types, b)
		}
	}
	childT, descT := chase.WitnessTargets(ts.cs, types, ts.wanted, true)
	for _, b := range childT {
		w.children = append(w.children, witnessChild{pattern.Child, b, ts.template(b)})
	}
	for _, b := range descT {
		w.children = append(w.children, witnessChild{pattern.Descendant, b, ts.template(b)})
	}
	delete(ts.building, t)
	ts.memo[t] = w
	return w
}

// instantiate expands the chain template under the fresh, childless
// witness w and returns the number of nodes added.
func (ts *witnessTemplates) instantiate(w *pattern.Node) int {
	tmpl := ts.template(w.Type)
	if tmpl == nil {
		return 0
	}
	return instantiateFrom(w, tmpl)
}

func instantiateFrom(w *pattern.Node, tmpl *witnessTemplate) int {
	added := 0
	for _, b := range tmpl.extras {
		w.AddType(b, true)
	}
	for _, c := range tmpl.children {
		cw := pattern.NewNode(c.typ)
		cw.Temp = true
		w.AddChild(c.edge, cw)
		added++
		if c.sub != nil {
			added += instantiateFrom(cw, c.sub)
		}
	}
	return added
}

func typeIn(ts []pattern.Type, t pattern.Type) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// ensureTempChild returns n's temporary witness child of the given type
// and edge kind, creating it if absent — the lookup is what makes
// re-augmenting a query idempotent — and reports whether it created it.
func ensureTempChild(n *pattern.Node, k pattern.EdgeKind, t pattern.Type) (*pattern.Node, bool) {
	for _, c := range n.Children {
		if c.Temp && c.Type == t && c.Edge == k {
			return c, false
		}
	}
	w := pattern.NewNode(t)
	w.Temp = true
	n.AddChild(k, w)
	return w, true
}
