package tpq

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"tpq/internal/oracle"
)

func TestMatcherAgainstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := SamplePublishingForest(rng, 30)
	m := NewMatcher(MatcherOptions{Forest: f})
	queries := []string{
		"Article*[/Title]",
		"Articles/Article*[/Title, //Paragraph]",
		"Article//Paragraph*",
		"Section*[/Paragraph]",
		"Article*[/Author/LastName]",
	}
	for _, src := range queries {
		p := MustParse(src)
		want := Match(p, f)
		got := m.Match(p)
		if len(want) != len(got) {
			t.Fatalf("%s: Matcher found %d answers, Match %d", src, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: answer %d differs", src, i)
			}
		}
		if m.Count(p) != len(want) {
			t.Fatalf("%s: Count mismatch", src)
		}
		if MatchCount(p, f) != len(want) {
			t.Fatalf("%s: MatchCount mismatch", src)
		}
	}
}

func TestMatcherIterators(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	f := SamplePublishingForest(rng, 20)
	idx := NewMatchIndex(f)
	m := NewMatcher(MatcherOptions{Index: idx})
	if m.Index() != idx || m.Forest() != f {
		t.Fatal("Matcher does not expose the shared index")
	}
	p := MustParse("Article*[/Title, //Paragraph]")

	full := m.Match(p)
	if len(full) == 0 {
		t.Fatal("workload produced no answers")
	}
	// Early stop: first answer only, no draining.
	var first *DataNode
	for v := range m.Answers(context.Background(), p) {
		first = v
		break
	}
	if first != full[0] {
		t.Fatal("streamed first answer differs from materialized first")
	}

	// Embeddings: clone to retain, answers consistent.
	var kept []Embedding
	for e := range m.Embeddings(context.Background(), p) {
		kept = append(kept, e.Clone())
		if len(kept) == 5 {
			break
		}
	}
	if len(kept) == 0 {
		t.Fatal("no embeddings")
	}
	for _, e := range kept {
		if e.Answer() == nil || !e.Answer().HasType("Article") {
			t.Fatal("embedding answer is not an Article")
		}
	}

	// CountEmbeddings agrees with the package-level kernel.
	if m.CountEmbeddings(p).Cmp(CountEmbeddings(p, f)) != 0 {
		t.Fatal("CountEmbeddings mismatch")
	}

	// Cancellation: a pre-canceled context yields nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range m.Answers(ctx, p) {
		t.Fatal("canceled context yielded an answer")
	}

	// Compile surfaces errors the iterators swallow.
	if _, err := m.Compile(&Pattern{}); err == nil {
		t.Fatal("empty pattern compiled")
	}
	bad := MustParse("a*")
	bad.Root.Star = false
	if _, err := m.Compile(bad); err == nil {
		t.Fatal("output-less pattern compiled")
	}
	for range m.Answers(context.Background(), bad) {
		t.Fatal("output-less pattern yielded an answer")
	}

	// Compiled query reuse.
	q, err := m.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count(context.Background()) != len(full) {
		t.Fatal("compiled Count mismatch")
	}
	if got := new(big.Int).SetInt64(int64(q.Count(context.Background()))); got.Sign() == 0 {
		t.Fatal("unexpected zero count")
	}
}

// TestMatchIndexedCompat pins evaluation over a prebuilt MatchIndex — a
// Matcher sharing the index, and the Match helper that builds its own —
// against the reference bindings of internal/oracle.
func TestMatchIndexedCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	f := SampleDirectoryForest(rng, 6)
	idx := NewMatchIndex(f)
	p := MustParse("OrgUnit//Employee*")
	want := oracle.BindingsMap(p, f)[p.OutputNode()]
	got := NewMatcher(MatcherOptions{Index: idx}).Match(p)
	if len(want) != len(got) || len(Match(p, f)) != len(want) {
		t.Fatalf("indexed Matcher found %d answers, reference %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("answer %d differs", i)
		}
	}
}

// TestMatcherConcurrentCount shares one Matcher between goroutines that
// each count a different type, so the index's lazily built per-type
// bitsets are filled concurrently (tpqd's /match shares one index the
// same way).
func TestMatcherConcurrentCount(t *testing.T) {
	const workers = 50
	root := NewDataNode("r")
	for i := 0; i < workers; i++ {
		root.Child(Type(fmt.Sprintf("t%d", i)))
	}
	m := NewMatcher(MatcherOptions{Forest: NewForest(root)})
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i] = m.Count(MustParse(fmt.Sprintf("t%d*", i)))
		}(i)
	}
	wg.Wait()
	for i, n := range counts {
		if n != 1 {
			t.Errorf("t%d*: %d answers, want 1", i, n)
		}
	}
}
