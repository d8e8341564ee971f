package match_test

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// countEmbeddings is the embedding count of p over f on the compiled
// query, 0 for a pattern that does not compile.
func countEmbeddings(p *pattern.Pattern, f *data.Forest) *big.Int {
	q, err := stream.Compile(p, match.NewForestIndex(f), stream.Options{})
	if err != nil {
		return new(big.Int)
	}
	return q.CountEmbeddings(context.Background())
}

func TestCountEmbeddingsBasic(t *testing.T) {
	f := library() // Library[Book[Title, Author[LastName]], Book[Title]]
	cases := []struct {
		src  string
		want int64
	}{
		{"Book*", 2},
		{"Book*/Title", 2},
		{"Library*/Book", 2},   // one embedding per Book child choice
		{"Library*[/Book]", 2}, // same pattern, bracket syntax
		{"Library*//Title", 2}, // Title at two descendants
		{"Book*[/Title, /Author]", 1},
		{"Missing*", 0},
		{"Title*", 2},
	}
	for _, c := range cases {
		got := countEmbeddings(pattern.MustParse(c.src), f)
		if got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("CountEmbeddings(%q) = %s, want %d", c.src, got, c.want)
		}
	}
}

func TestCountEmbeddingsMultiplies(t *testing.T) {
	// A node with k choices per child multiplies: root with 3 b-children
	// and 2 c-children gives 3*2 embeddings of a*[/b, /c].
	root := data.NewNode("a")
	for i := 0; i < 3; i++ {
		root.Child("b")
	}
	for i := 0; i < 2; i++ {
		root.Child("c")
	}
	f := data.NewForest(root)
	got := countEmbeddings(pattern.MustParse("a*[/b, /c]"), f)
	if got.Cmp(big.NewInt(6)) != 0 {
		t.Errorf("count = %s, want 6", got)
	}
	// Redundant duplicate branches square the count without changing the
	// answers — the blow-up minimization avoids.
	got2 := countEmbeddings(pattern.MustParse("a*[/b, /b, /c]"), f)
	if got2.Cmp(big.NewInt(18)) != 0 {
		t.Errorf("count with duplicate branch = %s, want 18", got2)
	}
}

func TestCountEmbeddingsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 120; i++ {
		f := randomForest(rng, 1+rng.Intn(12))
		p := randomQuery(rng, 1+rng.Intn(4))
		want := bruteForceEmbeddings(p, f)
		got := countEmbeddings(p, f)
		if got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("iter %d: CountEmbeddings = %s, brute force %d\npattern %s\ndata:\n%s",
				i, got, want, p, f)
		}
	}
}

// bruteForceEmbeddings enumerates all full assignments recursively.
func bruteForceEmbeddings(p *pattern.Pattern, f *data.Forest) int {
	var countAt func(u *pattern.Node, v *data.Node) int
	countAt = func(u *pattern.Node, v *data.Node) int {
		if !oracle.Admits(u, v) {
			return 0
		}
		prod := 1
		for _, c := range u.Children {
			sum := 0
			if c.Edge == pattern.Child {
				for _, w := range v.Children {
					sum += countAt(c, w)
				}
			} else {
				var desc func(*data.Node)
				desc = func(w *data.Node) {
					for _, x := range w.Children {
						sum += countAt(c, x)
						desc(x)
					}
				}
				desc(v)
			}
			prod *= sum
			if prod == 0 {
				return 0
			}
		}
		return prod
	}
	total := 0
	for _, v := range f.Nodes() {
		total += countAt(p.Root, v)
	}
	return total
}

func TestCountEmbeddingsEmpty(t *testing.T) {
	if countEmbeddings(&pattern.Pattern{}, library()).Sign() != 0 {
		t.Error("empty pattern counted embeddings")
	}
	if countEmbeddings(pattern.MustParse("a*"), data.NewForest()).Sign() != 0 {
		t.Error("empty forest counted embeddings")
	}
}

func TestCountEmbeddingsExponentialBlowup(t *testing.T) {
	// 10 duplicate //b branches over 4 b-nodes: 4^10 embeddings — why
	// big.Int, and why minimization matters.
	root := data.NewNode("a")
	cur := root
	for i := 0; i < 4; i++ {
		cur = cur.Child("b")
	}
	f := data.NewForest(root)
	src := "a*[//b"
	for i := 0; i < 9; i++ {
		src += ", //b"
	}
	src += "]"
	got := countEmbeddings(pattern.MustParse(src), f)
	want := new(big.Int).Exp(big.NewInt(4), big.NewInt(10), nil)
	if got.Cmp(want) != 0 {
		t.Errorf("count = %s, want 4^10 = %s", got, want)
	}
}
