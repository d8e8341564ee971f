package pattern

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refCanon is the pre-pooling reference implementation of the canonical
// encoding (strings.Builder + per-node sorted key strings), kept here to
// pin AppendCanonical byte-for-byte against it.
func refCanon(n *Node) string {
	var b strings.Builder
	refWriteCanon(&b, n)
	return b.String()
}

// refLabel is the reference label: types, star marker and conditions in
// the text syntax, built from strings rather than appendLabel's bytes.
func refLabel(n *Node) string {
	label := string(n.Type)
	if len(n.Extra) > 0 {
		extras := make([]string, len(n.Extra))
		for i, t := range n.Extra {
			extras[i] = string(t)
		}
		label += "{" + strings.Join(extras, ",") + "}"
	}
	if n.Star {
		label += "*"
	}
	if len(n.Conds) > 0 {
		conds := make([]string, len(n.Conds))
		for i, c := range n.Conds {
			conds[i] = c.String()
		}
		label += "(" + strings.Join(conds, ",") + ")"
	}
	return label
}

func refWriteCanon(b *strings.Builder, n *Node) {
	b.WriteString(refLabel(n))
	if len(n.Children) == 0 {
		return
	}
	keys := make([]string, len(n.Children))
	for i, c := range n.Children {
		keys[i] = c.Edge.String() + refCanon(c)
	}
	sort.Strings(keys)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
	}
	b.WriteByte(')')
}

// randomCanonPattern builds a random pattern exercising every feature the
// canonical form encodes: edge kinds, extra types, conditions and the
// output marker.
func randomCanonPattern(rng *rand.Rand, size int) *Pattern {
	types := []Type{"a", "b", "c", "d", "e"}
	root := NewNode(types[rng.Intn(len(types))])
	nodes := []*Node{root}
	for len(nodes) < size {
		parent := nodes[rng.Intn(len(nodes))]
		n := NewNode(types[rng.Intn(len(types))])
		edge := Child
		if rng.Intn(2) == 0 {
			edge = Descendant
		}
		parent.AddChild(edge, n)
		nodes = append(nodes, n)
	}
	star := nodes[rng.Intn(len(nodes))]
	star.Star = true
	for _, n := range nodes {
		if rng.Intn(4) == 0 {
			n.AddType(types[rng.Intn(len(types))])
		}
		if rng.Intn(5) == 0 {
			n.AddCond(Condition{Attr: "price", Op: Op(rng.Intn(6)), Value: float64(rng.Intn(100))})
		}
	}
	return &Pattern{Root: root}
}

func TestAppendCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		p := randomCanonPattern(rng, 1+rng.Intn(14))
		want := refCanon(p.Root)
		if got := p.Canonical(); got != want {
			t.Fatalf("case %d: Canonical = %q, reference = %q", i, got, want)
		}
		if got := string(p.AppendCanonical(nil)); got != want {
			t.Fatalf("case %d: AppendCanonical = %q, reference = %q", i, got, want)
		}
	}
}

// refString is the reference text rendering: each node's reference label,
// children stably sorted by edge marker plus reference canonical key.
func refString(n *Node) string {
	kids := append([]*Node(nil), n.Children...)
	sort.SliceStable(kids, func(i, j int) bool {
		return kids[i].Edge.String()+refCanon(kids[i]) < kids[j].Edge.String()+refCanon(kids[j])
	})
	s := refLabel(n)
	switch len(kids) {
	case 0:
	case 1:
		s += kids[0].Edge.String() + refString(kids[0])
	default:
		parts := make([]string, len(kids))
		for i, c := range kids {
			parts[i] = c.Edge.String() + refString(c)
		}
		s += "[" + strings.Join(parts, ", ") + "]"
	}
	return s
}

// TestStringMatchesReference pins String byte for byte against the
// reference rendering, so the one-key-per-child sort keeps every order.
func TestStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomCanonPattern(rng, 1+rng.Intn(14))
		if got, want := p.String(), refString(p.Root); got != want {
			t.Fatalf("case %d: String = %q, reference = %q", i, got, want)
		}
	}
}

func TestAppendCanonicalAppends(t *testing.T) {
	p := MustParse("a*[/b, //c]")
	got := p.AppendCanonical([]byte("prefix:"))
	want := "prefix:" + p.Canonical()
	if string(got) != want {
		t.Fatalf("AppendCanonical with prefix = %q, want %q", got, want)
	}
	if (*Pattern)(nil).AppendCanonical(nil) != nil {
		t.Fatal("nil pattern should append nothing")
	}
}

func TestAppendCanonicalZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops Puts by design; alloc counts are not meaningful")
	}
	p := MustParse("a*[/b[/x, //y], //c[/d, /e], /b]")
	dst := make([]byte, 0, 256)
	// Warm the scratch pool, then the steady state must not allocate.
	dst = p.AppendCanonical(dst[:0])
	_ = dst
	allocs := testing.AllocsPerRun(100, func() {
		dst = p.AppendCanonical(dst[:0])
	})
	if allocs > 0 {
		t.Fatalf("AppendCanonical allocates %v per run in steady state, want 0", allocs)
	}
}
