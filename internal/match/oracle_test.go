package match_test

import (
	"math/rand"
	"testing"

	"tpq/internal/data"
	"tpq/internal/genquery"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// denseForest returns a generated forest over the same type alphabet
// genquery.Random draws from, so patterns and data collide often.
func denseForest(t *testing.T, rng *rand.Rand, size int) *data.Forest {
	t.Helper()
	f, err := data.Generate(rng, data.GenOptions{
		Size:  size,
		Types: []pattern.Type{"t0", "t1", "t2", "t3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCountEmbeddingsDenseMatchesMap cross-validates the compiled query's
// embedding count against the nested-map reference of internal/oracle.
func TestCountEmbeddingsDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 120; trial++ {
		f := denseForest(t, rng, 30+rng.Intn(150))
		q := genquery.Random(rng, 1+rng.Intn(8), 4)
		got := countEmbeddings(q, f)
		want := oracle.CountEmbeddingsMap(q, f)
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: %s vs %s embeddings\nquery = %s", trial, got, want, q)
		}
	}
}

// TestAnswersIndexedMatchesOracle cross-validates evaluation over a
// ForestIndex, on the twig engine, against the reference bindings of
// internal/oracle.
func TestAnswersIndexedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		f := denseForest(t, rng, 30+rng.Intn(200))
		q := genquery.Random(rng, 1+rng.Intn(10), 4)
		want := oracle.BindingsMap(q, f)[q.OutputNode()]
		joined := answers(q, f)
		if len(want) != len(joined) {
			t.Fatalf("trial %d: %d vs %d answers\nquery = %s", trial, len(want), len(joined), q)
		}
		for i := range want {
			if want[i] != joined[i] {
				t.Fatalf("trial %d: answer %d differs", trial, i)
			}
		}
	}
}
