// Package xpath converts between tree pattern queries and the abbreviated
// XPath fragment they correspond to: child (/) and descendant-or-self (//)
// steps, existential path predicates ([a/b]), and numeric attribute
// comparisons ([@price<100]). This is the XP{/,//,[]} fragment studied in
// the literature descended from the paper; the conversion makes the
// library usable against real XPath workloads.
//
// A pattern's output node corresponds to the node selected by the XPath
// expression: the path from the pattern root to the output node becomes
// the spine of the expression and every off-spine subtree becomes a
// predicate. Because pattern matching is non-anchored (the pattern root
// may bind anywhere), ToXPath prefixes the expression with "//"; FromXPath
// accepts both "/" (anchored — represented by a synthetic root type, see
// DocumentRoot) and "//" entry points.
package xpath

import (
	"fmt"
	"strings"

	"tpq/internal/pattern"
)

// DocumentRoot is the synthetic node type FromXPath uses for the document
// root when an expression is anchored ("/a/b" rather than "//a/b"). Data
// loaders that want anchored XPath semantics should type their root nodes
// with it.
const DocumentRoot = pattern.Type("#document")

// ToXPath renders the pattern as an abbreviated XPath expression. Patterns
// with extra types (LDAP-style multi-typed nodes) have no XPath equivalent
// and are rejected; the document-root type renders as an anchored
// expression.
func ToXPath(p *pattern.Pattern) (string, error) {
	if p == nil || p.Root == nil {
		return "", fmt.Errorf("xpath: empty pattern")
	}
	star := p.OutputNode()
	if star == nil {
		return "", fmt.Errorf("xpath: pattern has no output node")
	}
	var err error
	p.Walk(func(n *pattern.Node) {
		if len(n.Extra) > 0 && err == nil {
			err = fmt.Errorf("xpath: node %q carries extra types; no XPath equivalent", n.Type)
		}
	})
	if err != nil {
		return "", err
	}

	// Spine: root ... star. Off-spine children become predicates.
	var spine []*pattern.Node
	for n := star; n != nil; n = n.Parent {
		spine = append(spine, n)
	}
	for i, j := 0, len(spine)-1; i < j; i, j = i+1, j-1 {
		spine[i], spine[j] = spine[j], spine[i]
	}
	onSpine := make(map[*pattern.Node]bool, len(spine))
	for _, n := range spine {
		onSpine[n] = true
	}

	var b strings.Builder
	for i, n := range spine {
		if i == 0 {
			if n.Type == DocumentRoot {
				continue // anchored: the first real step prints its own edge
			}
			b.WriteString("//")
		} else {
			b.WriteString(n.Edge.String())
		}
		writeStep(&b, n, onSpine)
	}
	return b.String(), nil
}

func writeStep(b *strings.Builder, n *pattern.Node, onSpine map[*pattern.Node]bool) {
	b.WriteString(string(n.Type))
	for _, c := range n.Conds {
		fmt.Fprintf(b, "[@%s%s%g]", c.Attr, c.Op, c.Value)
	}
	for _, c := range n.Children {
		if onSpine[c] {
			continue
		}
		b.WriteByte('[')
		writeRelative(b, c, true)
		b.WriteByte(']')
	}
}

// writeRelative renders an off-spine subtree as a relative path predicate.
// Multi-branch subtrees nest further predicates.
func writeRelative(b *strings.Builder, n *pattern.Node, first bool) {
	if first {
		if n.Edge != pattern.Child {
			b.WriteString(".//")
		}
	} else {
		b.WriteString(n.Edge.String())
	}
	b.WriteString(string(n.Type))
	for _, c := range n.Conds {
		fmt.Fprintf(b, "[@%s%s%g]", c.Attr, c.Op, c.Value)
	}
	switch len(n.Children) {
	case 0:
	case 1:
		writeRelative(b, n.Children[0], false)
	default:
		for _, c := range n.Children {
			b.WriteByte('[')
			writeRelative(b, c, true)
			b.WriteByte(']')
		}
	}
}

// FromXPath parses an abbreviated XPath expression into a pattern. The
// supported fragment: "/" and "//" steps over element names, existential
// relative-path predicates, and numeric attribute comparisons. The node
// selected by the expression becomes the output node. Anchored
// expressions gain a synthetic DocumentRoot root.
func FromXPath(src string) (*pattern.Pattern, error) {
	p := &xparser{src: src}
	root, last, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q after expression", p.rest())
	}
	last.Star = true
	pat := pattern.New(root)
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	return pat, nil
}

// FromXPathDisjunctive parses an abbreviated XPath expression extended
// with the top-level union operator: "expr1 | expr2 | ...". Each branch
// is a full expression of the FromXPath fragment and becomes one
// disjunct; the result is their canon-sorted, deduplicated union (the
// XPath union of node sets is exactly the OR semantics of the
// disjunctive pattern model). Unions inside predicates are not
// supported. An expression without "|" yields a singleton Disjunction.
func FromXPathDisjunctive(src string) (*pattern.Disjunction, error) {
	p := &xparser{src: src}
	var pats []*pattern.Pattern
	for {
		root, last, err := p.parsePath(true)
		if err != nil {
			return nil, err
		}
		last.Star = true
		pat := pattern.New(root)
		if err := pat.Validate(); err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if len(pats) > pattern.MaxDisjuncts {
			return nil, p.errorf("union has more than %d branches", pattern.MaxDisjuncts)
		}
		if !p.accept("|") {
			break
		}
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q after expression", p.rest())
	}
	return pattern.NewDisjunction(pats...), nil
}

type xparser struct {
	src string
	pos int
}

func (p *xparser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("xpath: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *xparser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 12 {
		r = r[:12] + "..."
	}
	return r
}

func (p *xparser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *xparser) accept(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

// isNameStart admits the first byte of a name: a letter or '_', as in
// XML and in the text grammar. In XPath "0" is a number and "." the self
// step ("a/.//b" must not render back as the different "a[.//b]").
func isNameStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isNameByte(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || (b >= '0' && b <= '9')
}

// parseName reads an element or attribute name, one the text grammar
// reads back too.
func (p *xparser) parseName() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errorf("expected an element name, found %q", p.rest())
	}
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// parsePath parses a step sequence and returns the path's first node and
// the node its last step selects. Top-level paths start with "/" or "//";
// relative paths (inside predicates) start with a name or ".//".
func (p *xparser) parsePath(top bool) (first, last *pattern.Node, err error) {
	edge := pattern.Child
	switch {
	case p.accept(".//"):
		if top {
			return nil, nil, p.errorf("expression may not start with .//")
		}
		edge = pattern.Descendant
	case p.accept("//"):
		edge = pattern.Descendant
	case p.accept("/"):
		if !top {
			return nil, nil, p.errorf("relative path may not start with /")
		}
		// Anchored: hang the path under a synthetic document root.
		edge = pattern.Child
		doc := pattern.NewNode(DocumentRoot)
		f, l, err := p.parseSteps(doc, edge)
		if err != nil {
			return nil, nil, err
		}
		_ = f
		return doc, l, nil
	default:
		if top {
			return nil, nil, p.errorf("expression must start with / or //")
		}
	}
	if top {
		// "//"-rooted: the first step is the pattern root.
		node, err := p.parseStep()
		if err != nil {
			return nil, nil, err
		}
		last, err := p.parseTail(node)
		return node, last, err
	}
	node, err2 := p.parseStep()
	if err2 != nil {
		return nil, nil, err2
	}
	node.Edge = edge // recorded; attached by the caller
	last, err = p.parseTail(node)
	return node, last, err
}

// parseSteps parses "name(...)/..." sequences attaching to parent.
func (p *xparser) parseSteps(parent *pattern.Node, edge pattern.EdgeKind) (first, last *pattern.Node, err error) {
	node, err := p.parseStep()
	if err != nil {
		return nil, nil, err
	}
	parent.AddChild(edge, node)
	last, err = p.parseTail(node)
	return node, last, err
}

// parseTail consumes further /step or //step continuations of node's path
// and returns the final selected node.
func (p *xparser) parseTail(node *pattern.Node) (*pattern.Node, error) {
	for {
		var edge pattern.EdgeKind
		switch {
		case p.accept("//"):
			edge = pattern.Descendant
		case p.accept("/"):
			edge = pattern.Child
		default:
			return node, nil
		}
		next, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		node.AddChild(edge, next)
		node = next
	}
}

// parseStep parses one "name[pred]...[pred]" step.
func (p *xparser) parseStep() (*pattern.Node, error) {
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	node := pattern.NewNode(pattern.Type(name))
	for p.accept("[") {
		if p.accept("@") {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			node.AddCond(cond)
		} else {
			sub, _, err := p.parsePath(false)
			if err != nil {
				return nil, err
			}
			node.AddChild(sub.Edge, sub)
		}
		if !p.accept("]") {
			return nil, p.errorf("expected ']', found %q", p.rest())
		}
	}
	return node, nil
}

func (p *xparser) parseCondition() (pattern.Condition, error) {
	attr, err := p.parseName()
	if err != nil {
		return pattern.Condition{}, err
	}
	p.skipSpace()
	var op pattern.Op
	switch {
	case p.accept("<="):
		op = pattern.OpLe
	case p.accept(">="):
		op = pattern.OpGe
	case p.accept("!="):
		op = pattern.OpNe
	case p.accept("<"):
		op = pattern.OpLt
	case p.accept(">"):
		op = pattern.OpGt
	case p.accept("="):
		op = pattern.OpEq
	default:
		return pattern.Condition{}, p.errorf("expected a comparison operator, found %q", p.rest())
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		b := p.src[p.pos]
		if b == '-' || b == '+' || b == '.' || b == 'e' || b == 'E' || (b >= '0' && b <= '9') {
			p.pos++
			continue
		}
		break
	}
	c, err := pattern.ParseCondition("@" + attr + op.String() + p.src[start:p.pos])
	if err != nil {
		return pattern.Condition{}, p.errorf("%v", err)
	}
	return c, nil
}
