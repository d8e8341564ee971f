package pattern

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements value-based conditions — the first extension
// discussed in the paper's conclusions (Section 7): nodes may carry
// comparisons over named numeric attributes ("the price of a book is less
// than 100"), and a containment mapping may send a node u onto a node v
// only if the conditions at v logically entail those at u. As anticipated
// there, the only change to the minimization machinery is this entailment
// check inside label compatibility; the algorithms themselves are
// untouched.

// Op is a comparison operator in a value condition.
type Op int8

// Comparison operators.
const (
	OpEq Op = iota // =
	OpNe           // !=
	OpLt           // <
	OpLe           // <=
	OpGt           // >
	OpGe           // >=
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Condition is a single comparison on a node attribute, e.g. @price < 100.
type Condition struct {
	Attr  string
	Op    Op
	Value float64
}

// String renders the condition in the text syntax, e.g. "@price<100".
func (c Condition) String() string {
	return "@" + c.Attr + c.Op.String() + strconv.FormatFloat(c.Value, 'g', -1, 64)
}

// Holds reports whether the condition is satisfied by the attribute value
// v.
func (c Condition) Holds(v float64) bool {
	switch c.Op {
	case OpEq:
		return v == c.Value
	case OpNe:
		return v != c.Value
	case OpLt:
		return v < c.Value
	case OpLe:
		return v <= c.Value
	case OpGt:
		return v > c.Value
	default:
		return v >= c.Value
	}
}

// interval is the solution set of a conjunction of conditions on one
// attribute: a (possibly open/degenerate) interval minus a finite set of
// excluded points.
type interval struct {
	lo, hi         float64
	loOpen, hiOpen bool
	excluded       []float64
	empty          bool
}

func fullInterval() interval {
	return interval{lo: math.Inf(-1), hi: math.Inf(1), loOpen: true, hiOpen: true}
}

func (iv *interval) constrain(c Condition) {
	switch c.Op {
	case OpEq:
		iv.tightenLo(c.Value, false)
		iv.tightenHi(c.Value, false)
	case OpNe:
		iv.excluded = append(iv.excluded, c.Value)
	case OpLt:
		iv.tightenHi(c.Value, true)
	case OpLe:
		iv.tightenHi(c.Value, false)
	case OpGt:
		iv.tightenLo(c.Value, true)
	default:
		iv.tightenLo(c.Value, false)
	}
	iv.normalize()
}

func (iv *interval) tightenLo(v float64, open bool) {
	if v > iv.lo || (v == iv.lo && open && !iv.loOpen) {
		iv.lo, iv.loOpen = v, open
	}
}

func (iv *interval) tightenHi(v float64, open bool) {
	if v < iv.hi || (v == iv.hi && open && !iv.hiOpen) {
		iv.hi, iv.hiOpen = v, open
	}
}

func (iv *interval) normalize() {
	if iv.lo > iv.hi || (iv.lo == iv.hi && (iv.loOpen || iv.hiOpen)) {
		iv.empty = true
		return
	}
	// A point interval excluded by a != makes the set empty.
	if iv.lo == iv.hi && !iv.loOpen && !iv.hiOpen {
		for _, x := range iv.excluded {
			if x == iv.lo {
				iv.empty = true
			}
		}
	}
}

// contains reports whether v is in the solution set.
func (iv interval) contains(v float64) bool {
	if iv.empty {
		return false
	}
	if v < iv.lo || (v == iv.lo && iv.loOpen) {
		return false
	}
	if v > iv.hi || (v == iv.hi && iv.hiOpen) {
		return false
	}
	for _, x := range iv.excluded {
		if x == v {
			return false
		}
	}
	return true
}

// implies reports whether every value in the solution set satisfies c.
func (iv interval) implies(c Condition) bool {
	if iv.empty {
		return true // vacuous: nothing satisfies the premises
	}
	switch c.Op {
	case OpEq:
		return iv.lo == iv.hi && !iv.loOpen && !iv.hiOpen && iv.lo == c.Value
	case OpNe:
		if !iv.contains(c.Value) {
			return true
		}
		return false
	case OpLt:
		return iv.hi < c.Value || (iv.hi == c.Value && iv.hiOpen)
	case OpLe:
		return iv.hi <= c.Value
	case OpGt:
		return iv.lo > c.Value || (iv.lo == c.Value && iv.loOpen)
	default:
		return iv.lo >= c.Value
	}
}

// Entails reports whether the conjunction of the conditions in have
// logically implies the conjunction of those in want. An unsatisfiable
// have entails everything. Conditions on different attributes are
// independent; a wanted condition on an attribute have says nothing about
// is not entailed (attributes are optional on data nodes, so absence of a
// premise never guarantees anything).
func Entails(have, want []Condition) bool {
	if len(want) == 0 {
		return true
	}
	byAttr := make(map[string]*interval)
	for _, c := range have {
		iv := byAttr[c.Attr]
		if iv == nil {
			f := fullInterval()
			iv = &f
			byAttr[c.Attr] = iv
		}
		iv.constrain(c)
	}
	// If any attribute's premises are unsatisfiable, the node can match
	// nothing and entails everything.
	for _, iv := range byAttr {
		if iv.empty {
			return true
		}
	}
	for _, c := range want {
		iv := byAttr[c.Attr]
		if iv == nil || !iv.implies(c) {
			return false
		}
	}
	return true
}

// Satisfiable reports whether a conjunction of conditions has any
// solution.
func Satisfiable(conds []Condition) bool {
	byAttr := make(map[string]*interval)
	for _, c := range conds {
		iv := byAttr[c.Attr]
		if iv == nil {
			f := fullInterval()
			iv = &f
			byAttr[c.Attr] = iv
		}
		iv.constrain(c)
	}
	for _, iv := range byAttr {
		if iv.empty {
			return false
		}
		// An excluded-point-riddled interval is still non-empty over the
		// reals unless it degenerates to an excluded point, handled in
		// normalize.
	}
	return true
}

// SampleConds returns attribute values satisfying every condition, or
// false if the conjunction is unsatisfiable. Used to build canonical
// databases for patterns with value conditions.
func SampleConds(conds []Condition) (map[string]float64, bool) {
	byAttr := make(map[string]*interval)
	for _, c := range conds {
		iv := byAttr[c.Attr]
		if iv == nil {
			f := fullInterval()
			iv = &f
			byAttr[c.Attr] = iv
		}
		iv.constrain(c)
	}
	out := make(map[string]float64, len(byAttr))
	for attr, iv := range byAttr {
		v, ok := iv.sample()
		if !ok {
			return nil, false
		}
		out[attr] = v
	}
	return out, true
}

// sample returns a point of the solution set, if any.
func (iv interval) sample() (float64, bool) {
	if iv.empty {
		return 0, false
	}
	var candidates []float64
	switch {
	case !math.IsInf(iv.lo, -1) && !math.IsInf(iv.hi, 1):
		candidates = []float64{(iv.lo + iv.hi) / 2, iv.lo, iv.hi}
	case !math.IsInf(iv.lo, -1):
		candidates = []float64{iv.lo, iv.lo + 1, iv.lo + 2}
	case !math.IsInf(iv.hi, 1):
		candidates = []float64{iv.hi, iv.hi - 1, iv.hi - 2}
	default:
		candidates = []float64{0, 1, 2}
	}
	// Nudge around exclusions.
	for _, x := range iv.excluded {
		candidates = append(candidates, x+0.25, x-0.25)
	}
	for _, c := range candidates {
		if iv.contains(c) {
			return c, true
		}
	}
	// Exhaustive nudging within the interval as a last resort.
	base := iv.lo
	if math.IsInf(base, -1) {
		base = -float64(len(iv.excluded)) - 1
	}
	for i := 0; i <= len(iv.excluded)+2; i++ {
		c := base + float64(i)*0.125
		if iv.contains(c) {
			return c, true
		}
	}
	return 0, false
}

// AddCond attaches a condition to the node, keeping the list sorted for
// canonical printing.
func (n *Node) AddCond(c Condition) {
	n.Conds = append(n.Conds, c)
	sort.Slice(n.Conds, func(i, j int) bool {
		a, b := n.Conds[i], n.Conds[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Value < b.Value
	})
}

// CondsEntail reports whether n's conditions entail m's — the check
// deciding whether m may be mapped onto n, value-wise.
func (n *Node) CondsEntail(m *Node) bool {
	return Entails(n.Conds, m.Conds)
}

// ParseCondition reads one condition from text, e.g. "@price < 100".
func ParseCondition(src string) (Condition, error) {
	s := strings.TrimSpace(src)
	if !strings.HasPrefix(s, "@") {
		return Condition{}, fmt.Errorf("pattern: condition %q must start with @", src)
	}
	s = s[1:]
	for _, op := range []struct {
		sym string
		op  Op
	}{{"<=", OpLe}, {">=", OpGe}, {"!=", OpNe}, {"<", OpLt}, {">", OpGt}, {"=", OpEq}} {
		i := strings.Index(s, op.sym)
		if i <= 0 {
			continue
		}
		attr := strings.TrimSpace(s[:i])
		num := strings.TrimSpace(s[i+len(op.sym):])
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return Condition{}, fmt.Errorf("pattern: condition %q: bad number %q", src, num)
		}
		// NaN compares unequal to everything, itself included: a NaN
		// threshold can never be satisfied and breaks Condition equality.
		if math.IsNaN(v) {
			return Condition{}, fmt.Errorf("pattern: condition %q: NaN is not a valid threshold", src)
		}
		if attr == "" {
			return Condition{}, fmt.Errorf("pattern: condition %q: empty attribute", src)
		}
		// An operator character in the name would re-split differently
		// once String drops the spaces: "@a! =0" is not "@a!=0".
		if strings.ContainsAny(attr, "<>!=") {
			return Condition{}, fmt.Errorf("pattern: condition %q: operator character in attribute %q", src, attr)
		}
		return Condition{Attr: attr, Op: op.op, Value: v}, nil
	}
	return Condition{}, fmt.Errorf("pattern: condition %q: no comparison operator", src)
}
