package containment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"tpq/internal/pattern"
)

// goldenWitnessDigest is the SHA-256 of every witness TestFindMappingGolden
// draws, as (p ordinal, q ordinal) pairs in p's preorder, recorded when
// FindMapping still seeded its rows from per-type candidate lists and
// probed each candidate's children. A change to how rows are filtered must
// leave every witness as it was: the top-down pick still takes the first
// feasible image in preorder.
const goldenWitnessDigest = "8005ade0af7d8498dbc01e9bb7561e641e264622fd48562263ee82f4c2d4f61c"

// decorate gives the nodes of p random extra types and value conditions.
func decorate(rng *rand.Rand, p *pattern.Pattern, alphabet int) {
	p.Walk(func(n *pattern.Node) {
		if rng.Intn(4) == 0 {
			n.AddType(pattern.Type("t" + string(rune('0'+rng.Intn(alphabet)))))
		}
		if rng.Intn(5) == 0 {
			op := []pattern.Op{pattern.OpLt, pattern.OpLe, pattern.OpGt, pattern.OpGe, pattern.OpEq, pattern.OpNe}[rng.Intn(6)]
			n.AddCond(pattern.Condition{Attr: []string{"a", "b"}[rng.Intn(2)], Op: op, Value: float64(rng.Intn(4))})
		}
	})
}

// goldenPattern returns a random pattern over alphabet types with mixed
// edges, extra types and conditions.
func goldenPattern(rng *rand.Rand, size, alphabet int) *pattern.Pattern {
	root := pattern.NewNode(pattern.Type("t" + string(rune('0'+rng.Intn(alphabet)))))
	nodes := []*pattern.Node{root}
	for len(nodes) < size {
		kind := pattern.Child
		if rng.Intn(2) == 0 {
			kind = pattern.Descendant
		}
		u := pattern.NewNode(pattern.Type("t" + string(rune('0'+rng.Intn(alphabet)))))
		nodes = append(nodes, nodes[rng.Intn(len(nodes))].AddChild(kind, u))
	}
	nodes[rng.Intn(len(nodes))].Star = true
	p := pattern.New(root)
	decorate(rng, p, alphabet)
	return p
}

// weaken returns a copy of q with fewer requirements, so that a mapping
// into q is likely: leaves dropped, c-edges relaxed to d-edges, extra
// types and conditions removed at random. The output node stays.
func weaken(rng *rand.Rand, q *pattern.Pattern) *pattern.Pattern {
	p := q.Clone()
	var nodes []*pattern.Node
	p.Walk(func(n *pattern.Node) { nodes = append(nodes, n) })
	for i := len(nodes) - 1; i > 0; i-- {
		n := nodes[i]
		switch {
		case len(n.Children) == 0 && !n.Star && rng.Intn(3) == 0:
			n.Detach()
			continue
		case n.Edge == pattern.Child && rng.Intn(3) == 0:
			n.Edge = pattern.Descendant
		}
		if len(n.Extra) > 0 && rng.Intn(2) == 0 {
			n.Extra = nil
		}
		if len(n.Conds) > 0 && rng.Intn(2) == 0 {
			n.Conds = nil
		}
	}
	return p
}

// TestFindMappingGolden pins FindMapping's witnesses on 600 seeded pairs
// with mixed edges, extra types and conditions: half draw p at random,
// half weaken q into p, so that most of those map and many have several
// images to choose from. The digest of every witness, as ordinal pairs,
// must equal the one recorded.
func TestFindMappingGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	h := sha256.New()
	var buf [4]byte
	put := func(x int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	found := 0
	for i := 0; i < 600; i++ {
		q := goldenPattern(rng, 2+rng.Intn(14), 3)
		p := goldenPattern(rng, 1+rng.Intn(6), 3)
		if i%2 == 1 {
			p = weaken(rng, q)
		}
		m := FindMapping(p, q)
		put(i)
		if m == nil {
			put(-1)
			continue
		}
		if !Verify(p, q, m) {
			t.Fatalf("pair %d: witness does not verify\np = %s\nq = %s", i, p, q)
		}
		found++
		var pl, ql pattern.Preorder
		pl.Fill(p)
		ql.Fill(q)
		qOrd := make(map[*pattern.Node]int, len(ql.Nodes))
		for j, v := range ql.Nodes {
			qOrd[v] = j
		}
		for j, u := range pl.Nodes {
			put(j)
			put(qOrd[m[u]])
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d of 600 pairs map; witness digest %s", found, got)
	if found < 200 {
		t.Fatalf("only %d of 600 pairs map: the generator exercises too little", found)
	}
	if got != goldenWitnessDigest {
		t.Fatalf("witness digest %s, recorded %s", got, goldenWitnessDigest)
	}
}
