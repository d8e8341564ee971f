package pattern

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

func parseFloat(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	return strconv.ParseFloat(s, 64)
}

// Parse builds a pattern from its text syntax.
//
// Grammar (whitespace insignificant outside names):
//
//	pattern  := node
//	node     := name extras? star? conds? kids? chain?
//	extras   := '{' name (',' name)* '}'
//	star     := '*'
//	conds    := '(' cond (',' cond)* ')'
//	cond     := '@' name op number   // value condition, e.g. @price<100
//	op       := '<=' | '>=' | '<' | '>' | '!=' | '='
//	kids     := '[' child (',' child)* ']'
//	child    := edge? node
//	chain    := edge node            // sugar: one more child
//	edge     := '//' | '/'           // default '/'
//	name     := ('#'|'_'|letter) (letter|digit|'_'|'-'|'.')*
//
// ParseDisjunctive (see or.go) extends node with one more production:
//
//	node     := ... | 'or' '(' node (',' node)* ')'
//
// An or-node may appear at the root or in any child position; its
// alternatives are full node subtrees (nested or(...) included) and take
// the or-node's edge when the disjunction is distributed. The or-node
// itself carries no extras, star, conditions, children or chain — put
// those inside each alternative. Parse rejects or-nodes: conjunctive
// callers never see them. A node literally named "or" stays parseable
// everywhere except immediately before a '(' that does not open a
// condition list (the disambiguation is one byte: condition lists start
// with '@').
//
// Examples:
//
//	Articles/Article*[/Title, //Paragraph, /Section//Paragraph]
//
// is the query of Figure 2(a) of the paper: an Articles root with an
// Article c-child marked as the output, which in turn has a Title c-child,
// a Paragraph d-child, and a Section c-child with a Paragraph d-child.
// Linear chains need no brackets: a/b//c* parses as a with c-child b with
// d-child c (the output node).
func Parse(src string) (*Pattern, error) {
	p := &parser{src: src}
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q after pattern", p.rest())
	}
	pat := &Pattern{Root: root}
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	return pat, nil
}

// MustParse is Parse for tests and examples: it panics on error.
func MustParse(src string) *Pattern {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src string
	pos int
	// allowOr admits the or(...) disjunction production; only
	// ParseDisjunctive sets it. The conjunctive Parse rejects or-nodes
	// with a pointer at ParseDisjunctive instead.
	allowOr bool
	// sawOr records that an or-node was read, so ParseDisjunctive can
	// skip distribution for the plain patterns that are most queries.
	sawOr bool
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("pattern: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 12 {
		r = r[:12] + "..."
	}
	return r
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// accept consumes s if it is next in the input (after space) and reports
// whether it did.
func (p *parser) accept(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

// isNameStart admits the first byte of a name; '#' reads the root of an
// anchored XPath expression (xpath.DocumentRoot, "#document").
func isNameStart(b byte) bool {
	return b == '#' || b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isNameByte(b byte) bool {
	return b == '_' || b == '-' || b == '.' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func (p *parser) parseName() (string, error) {
	p.skipSpace()
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errorf("expected a type name, found %q", p.rest())
	}
	p.pos++
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// parseEdge consumes an optional edge marker and returns its kind
// (defaulting to Child when absent).
func (p *parser) parseEdge() EdgeKind {
	if p.accept("//") {
		return Descendant
	}
	if p.accept("/") {
		return Child
	}
	return Child
}

// parseCondition reads one "@attr OP number" condition.
func (p *parser) parseCondition() (Condition, error) {
	p.skipSpace()
	if !p.accept("@") {
		return Condition{}, p.errorf("expected '@' to start a condition, found %q", p.rest())
	}
	attr, err := p.parseName()
	if err != nil {
		return Condition{}, err
	}
	p.skipSpace()
	var op Op
	switch {
	case p.accept("<="):
		op = OpLe
	case p.accept(">="):
		op = OpGe
	case p.accept("!="):
		op = OpNe
	case p.accept("<"):
		op = OpLt
	case p.accept(">"):
		op = OpGt
	case p.accept("="):
		op = OpEq
	default:
		return Condition{}, p.errorf("expected a comparison operator, found %q", p.rest())
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && (p.src[p.pos] == '-' || p.src[p.pos] == '+' ||
		p.src[p.pos] == '.' || p.src[p.pos] == 'e' || p.src[p.pos] == 'E' ||
		(p.src[p.pos] >= '0' && p.src[p.pos] <= '9')) {
		p.pos++
	}
	v, err := parseFloat(p.src[start:p.pos])
	if err != nil {
		return Condition{}, p.errorf("bad number in condition: %v", err)
	}
	return Condition{Attr: attr, Op: op, Value: v}, nil
}

func (p *parser) parseNode() (*Node, error) {
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if name == "or" && p.orAhead() {
		if !p.allowOr {
			return nil, p.errorf("or(...) is a disjunction, not allowed in a conjunctive pattern (use ParseDisjunctive)")
		}
		return p.parseOrNode()
	}
	n := NewNode(Type(name))
	if p.accept("{") {
		for {
			extra, err := p.parseName()
			if err != nil {
				return nil, err
			}
			n.AddType(Type(extra))
			if p.accept(",") {
				continue
			}
			if p.accept("}") {
				break
			}
			return nil, p.errorf("expected ',' or '}' in extra-type list, found %q", p.rest())
		}
	}
	if p.accept("*") {
		n.Star = true
	}
	if p.accept("(") {
		for {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			n.AddCond(cond)
			if p.accept(",") {
				continue
			}
			if p.accept(")") {
				break
			}
			return nil, p.errorf("expected ',' or ')' in condition list, found %q", p.rest())
		}
	}
	if p.accept("[") {
		if p.accept("]") {
			return nil, p.errorf("empty child list")
		}
		for {
			kind := p.parseEdge()
			child, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.AddChild(kind, child)
			if p.accept(",") {
				continue
			}
			if p.accept("]") {
				break
			}
			return nil, p.errorf("expected ',' or ']' in child list, found %q", p.rest())
		}
	}
	// Chain sugar: name/child or name//child appends one more child.
	p.skipSpace()
	if p.peek() == '/' {
		kind := p.parseEdge()
		child, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		n.AddChild(kind, child)
	}
	return n, nil
}

// orAhead reports whether the input (with the name "or" just consumed)
// continues with a disjunct list rather than a condition list: a '(' whose
// first non-space content is not '@'. Only this one byte separates the
// disjunction or(a, b) from a node named "or" with conditions, or(@x<5).
func (p *parser) orAhead() bool {
	i := p.pos
	for i < len(p.src) && unicode.IsSpace(rune(p.src[i])) {
		i++
	}
	if i >= len(p.src) || p.src[i] != '(' {
		return false
	}
	i++
	for i < len(p.src) && unicode.IsSpace(rune(p.src[i])) {
		i++
	}
	return i >= len(p.src) || p.src[i] != '@'
}

// parseOrNode reads the disjunct list of an or-node ("or" is already
// consumed): '(' node (',' node)* ')'. The or-node itself admits no
// decoration — no extras, star, conditions, child list or chain — so every
// structural requirement lives inside an alternative and distribution
// (see or.go) stays a pure cross product.
func (p *parser) parseOrNode() (*Node, error) {
	p.accept("(")
	p.sawOr = true
	n := &Node{Or: true}
	for {
		p.skipSpace()
		if b := p.peek(); b == ')' || b == ',' || b == 0 {
			return nil, p.errorf("empty disjunct in or(...)")
		}
		alt, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		alt.Parent = n
		n.Children = append(n.Children, alt)
		if p.accept(",") {
			continue
		}
		if p.accept(")") {
			break
		}
		return nil, p.errorf("unclosed or(...): expected ',' or ')' in disjunct list, found %q", p.rest())
	}
	p.skipSpace()
	switch p.peek() {
	case '*':
		return nil, p.errorf("or(...) cannot be the output node; mark a node inside each alternative")
	case '{':
		return nil, p.errorf("or(...) cannot carry extra types; put them inside each alternative")
	case '(':
		return nil, p.errorf("or(...) cannot carry conditions; put them inside each alternative")
	case '[', '/':
		return nil, p.errorf("or(...) cannot take children; put them inside each alternative")
	}
	return n, nil
}

// String renders the pattern in the text syntax accepted by Parse. Children
// are printed in canonical (sorted) order, so two isomorphic patterns print
// identically; see canon.go. A single child prints as a chain
// ("a/b" rather than "a[/b]"); multiple children print bracketed with
// explicit edge markers.
func (p *Pattern) String() string {
	if p == nil || p.Root == nil {
		return "<empty>"
	}
	return string(appendText(nil, p.Root))
}

// appendText appends the text of the subtree at n: its label (the same
// bytes the canonical form uses), then its children in canonical order.
func appendText(dst []byte, n *Node) []byte {
	dst = appendLabel(dst, n)
	kids := sortedChildren(n)
	switch len(kids) {
	case 0:
	case 1:
		dst = appendEdge(dst, kids[0].Edge)
		dst = appendText(dst, kids[0])
	default:
		dst = append(dst, '[')
		for i, c := range kids {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendEdge(dst, c.Edge)
			dst = appendText(dst, c)
		}
		dst = append(dst, ']')
	}
	return dst
}
