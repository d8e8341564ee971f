package stream

import (
	"context"
	"iter"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"tpq/internal/data"
	"tpq/internal/genquery"
	"tpq/internal/match"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// randomForest builds a random forest whose nodes sometimes carry a second
// type, so multi-type pattern leaves (the bitset-pair fast path) actually
// match something.
func randomForest(rng *rand.Rand, size, alphabet int) *data.Forest {
	types := make([]pattern.Type, alphabet)
	for i := range types {
		types[i] = genquery.T(i)
	}
	f, err := data.Generate(rng, data.GenOptions{Size: size, Types: types, Roots: 1 + rng.Intn(2)})
	if err != nil {
		panic(err)
	}
	for _, v := range f.Nodes() {
		if rng.Intn(4) == 0 {
			v.AddType(types[rng.Intn(alphabet)])
		}
		if rng.Intn(5) == 0 {
			v.SetAttr("x", float64(rng.Intn(10)))
		}
	}
	return f
}

// randomQuery builds a random pattern, sometimes with extra types and
// value conditions, to cover every candidate representation.
func randomQuery(rng *rand.Rand, size, alphabet int) *pattern.Pattern {
	q := genquery.Random(rng, size, alphabet)
	q.Walk(func(n *pattern.Node) {
		if rng.Intn(6) == 0 {
			n.Extra = append(n.Extra, genquery.T(rng.Intn(alphabet)))
		}
		if rng.Intn(8) == 0 {
			n.Conds = append(n.Conds, pattern.Condition{Attr: "x", Op: pattern.OpLe, Value: float64(rng.Intn(10))})
		}
	})
	return q
}

func ids(nodes []*data.Node) []int {
	out := make([]int, len(nodes))
	for i, v := range nodes {
		out[i] = v.ID
	}
	return out
}

func collect(q *Query, ctx context.Context) []*data.Node {
	var out []*data.Node
	for v := range q.Answers(ctx) {
		out = append(out, v)
	}
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEmbedding verifies a yielded assignment is a real embedding: local
// types and conditions hold, c-edges map to parent-child, d-edges to
// proper ancestor-descendant.
func checkEmbedding(t *testing.T, q *Query, e Embedding) {
	t.Helper()
	for i := 0; i < e.Len(); i++ {
		u, v := e.PatternNode(i), e.At(i)
		if v == nil {
			t.Fatalf("pattern node %d unassigned", i)
		}
		if !oracle.Admits(u, v) {
			t.Fatalf("pattern node %d: image %d fails the local test", i, v.ID)
		}
		if pid := q.pat.Parent[i]; pid >= 0 {
			p := e.At(int(pid))
			if u.Edge == pattern.Child {
				if v.Parent != p {
					t.Fatalf("pattern node %d: c-edge image %d is not a child of %d", i, v.ID, p.ID)
				}
			} else if !p.IsAncestorOf(v) {
				t.Fatalf("pattern node %d: d-edge image %d is not a descendant of %d", i, v.ID, p.ID)
			}
		}
	}
}

// TestAgainstMaterializedEngines is the in-package differential sweep: the
// streamed answer set must equal the reference bindings of internal/oracle,
// and CountEmbeddings and the streamed embedding enumeration must agree
// with the reference's big-integer count, on hundreds of random
// query/forest pairs.
func TestAgainstMaterializedEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const embedCap = 5000
	for i := 0; i < 400; i++ {
		q := randomQuery(rng, 1+rng.Intn(9), 3+rng.Intn(3))
		f := randomForest(rng, 1+rng.Intn(60), 5)
		idx := match.NewForestIndex(f)
		sq, err := Compile(q, idx, Options{})
		if err != nil {
			t.Fatalf("case %d: compile %s: %v", i, q, err)
		}

		want := ids(oracle.BindingsMap(q, f)[q.OutputNode()])
		got := ids(collect(sq, context.Background()))
		if !equalIDs(want, got) {
			t.Fatalf("case %d: query %s\nforest:\n%s\nreference answers %v, streamed %v", i, q, f, want, got)
		}

		// Embeddings: validity of each, count agreement, and answer-set
		// consistency when the enumeration completes.
		starImages := map[int]bool{}
		n := 0
		complete := true
		for e := range sq.Embeddings(context.Background()) {
			checkEmbedding(t, sq, e)
			starImages[e.Answer().ID] = true
			if n++; n >= embedCap {
				complete = false
				break
			}
		}
		wantCount := oracle.CountEmbeddingsMap(q, f)
		if got := sq.CountEmbeddings(context.Background()); got.Cmp(wantCount) != 0 {
			t.Fatalf("case %d: query %s: CountEmbeddings says %s, reference %s", i, q, got, wantCount)
		}
		if complete {
			if wantCount.Cmp(big.NewInt(int64(n))) != 0 {
				t.Fatalf("case %d: query %s: counted %s embeddings, enumerated %d", i, q, wantCount, n)
			}
			if len(starImages) != len(want) {
				t.Fatalf("case %d: query %s: embeddings bind the output to %d nodes, answers have %d", i, q, len(starImages), len(want))
			}
		} else if wantCount.Cmp(big.NewInt(embedCap)) < 0 {
			t.Fatalf("case %d: query %s: enumerated %d embeddings, reference counts %s", i, q, embedCap, wantCount)
		}
		for id := range starImages {
			if !idx.Forest().Nodes()[id].HasType(sq.pat.Nodes[sq.star].Type) {
				t.Fatalf("case %d: star image %d lacks the output type", i, id)
			}
		}
	}
}

// TestEarlyStopIsPrefix pins the streaming contract: breaking after k
// answers yields exactly the first k of the full document-ordered set.
func TestEarlyStopIsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := data.GeneratePublishing(rng, 40)
	q := pattern.MustParse("Article[/Title]//Paragraph*")
	sq, err := Compile(q, match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := ids(collect(sq, context.Background()))
	if len(full) < 5 {
		t.Fatalf("workload too small: %d answers", len(full))
	}
	var prefix []int
	for v := range sq.Answers(context.Background()) {
		prefix = append(prefix, v.ID)
		if len(prefix) == 3 {
			break
		}
	}
	if !equalIDs(prefix, full[:3]) {
		t.Fatalf("limited run %v is not a prefix of %v", prefix, full[:6])
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := data.GeneratePublishing(rng, 50)
	q := pattern.MustParse("Article//Paragraph*")
	sq, err := Compile(q, match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := collect(sq, ctx); len(got) != 0 {
		t.Fatalf("pre-canceled context yielded %d answers", len(got))
	}

	// Cancel mid-stream: iteration must stop without draining the rest.
	total := sq.Count(context.Background())
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	n := 0
	for range sq.Answers(ctx) {
		if n++; n == 1 {
			cancel()
		}
	}
	if n >= total {
		t.Fatalf("canceled run drained all %d answers", total)
	}
	n = 0
	for range sq.Embeddings(ctx) {
		n++
	}
	if n != 0 {
		t.Fatalf("canceled embedding run yielded %d", n)
	}
}

// TestCountEmbeddingsCancellation pins CountEmbeddings' cancellation
// contract, Count's: a run on a canceled context stops and counts 0.
func TestCountEmbeddingsCancellation(t *testing.T) {
	f := data.GeneratePublishing(rand.New(rand.NewSource(8)), 50)
	sq, err := Compile(pattern.MustParse("Article[/Title]//Paragraph*"), match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sq.CountEmbeddings(context.Background()).Sign() == 0 {
		t.Fatal("workload has no embeddings")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := sq.CountEmbeddings(ctx); got.Sign() != 0 {
		t.Fatalf("canceled run counted %s embeddings", got)
	}
}

// TestCountEmbeddingsConditionsAndExtras checks CountEmbeddings against
// the reference count for patterns whose nodes carry extra types and
// value conditions, whose admission rows are built privately: type rows
// ANDed, then the members failing a condition cleared.
func TestCountEmbeddingsConditionsAndExtras(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	srcs := []string{
		"t0*[/t1{t2}(@x<=6), //t2(@x>=3)]",
		"t0{t1}[//t2(@x<5)]//t1*(@x>=2)",
		"t2(@x!=4)[/t0{t1}, /t0]/t1{t0}*",
	}
	nonzero := 0
	for trial := 0; trial < 40; trial++ {
		f := randomForest(rng, 40+rng.Intn(120), 3)
		for _, v := range f.Nodes() {
			if rng.Intn(2) == 0 {
				v.AddType(genquery.T(rng.Intn(3)))
			}
			v.SetAttr("x", float64(rng.Intn(10)))
		}
		idx := match.NewForestIndex(f)
		for _, src := range srcs {
			p := pattern.MustParse(src)
			sq, err := Compile(p, idx, Options{})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := oracle.CountEmbeddingsMap(p, f)
			if got := sq.CountEmbeddings(context.Background()); got.Cmp(want) != 0 {
				t.Fatalf("trial %d: %s: CountEmbeddings %s, reference %s", trial, src, got, want)
			}
			if want.Sign() > 0 {
				nonzero++
			}
		}
	}
	if nonzero < 40 {
		t.Fatalf("only %d of 120 cases have embeddings", nonzero)
	}
}

func TestCompileErrors(t *testing.T) {
	f := data.NewForest(data.NewNode("a"))
	idx := match.NewForestIndex(f)
	if _, err := Compile(nil, idx, Options{}); err == nil {
		t.Fatal("nil pattern compiled")
	}
	noStar := pattern.New(pattern.NewNode("a"))
	if _, err := Compile(noStar, idx, Options{}); err == nil {
		t.Fatal("output-less pattern compiled")
	}
	if _, err := Compile(pattern.MustParse("a*"), nil, Options{}); err == nil {
		t.Fatal("nil index compiled")
	}
	// A hand-built pattern may carry an edge kind that is neither child
	// nor descendant, on a plain leaf (which takes a cached lift row), an
	// inner node, an output node or the root: it compiles, and evaluates
	// as a d-edge.
	g, err := data.Generate(rand.New(rand.NewSource(5)), data.GenOptions{Size: 300, Types: []pattern.Type{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	idx = match.NewForestIndex(g)
	const src = "a[/b/a]/a*[/a, //b]"
	withEdge := func(i int, k pattern.EdgeKind) *Query {
		p, j := pattern.MustParse(src), 0
		p.Walk(func(u *pattern.Node) {
			if j == i {
				u.Edge = k
			}
			j++
		})
		q, err := Compile(p, idx, Options{})
		if err != nil {
			t.Fatalf("node %d: edge kind %d: %v", i, k, err)
		}
		return q
	}
	ctx := context.Background()
	for i := 0; i < pattern.MustParse(src).Size(); i++ {
		got, want := withEdge(i, 5), withEdge(i, pattern.Descendant)
		if want.Count(ctx) == 0 {
			t.Fatalf("node %d: the d-edge pattern has no answers to compare", i)
		}
		if !equalIDs(ids(collect(got, ctx)), ids(collect(want, ctx))) || got.Count(ctx) != want.Count(ctx) {
			t.Fatalf("node %d: edge kind 5 answers differ from a d-edge's", i)
		}
		if got.CountEmbeddings(ctx).Cmp(want.CountEmbeddings(ctx)) != 0 {
			t.Fatalf("node %d: edge kind 5 embedding count differs from a d-edge's", i)
		}
	}
}

// TestCompileAllocs pins the cost of compiling one disjunct, which
// /match pays per disjunct on every request: the pattern's preorder
// layout is filled into exactly sized arrays and the compiled arrays are
// sized from it (7 allocations here with Go 1.24; building the old
// node-keyed pattern index for the same walk took 29).
func TestCompileAllocs(t *testing.T) {
	idx := match.NewForestIndex(data.GeneratePublishing(rand.New(rand.NewSource(1)), 20))
	p := pattern.MustParse("Article[/Title]//Paragraph*")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Compile(p, idx, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Compile allocates %v times, want at most 8", allocs)
	}
}

func TestEmptyForest(t *testing.T) {
	idx := match.NewForestIndex(data.NewForest())
	sq, err := Compile(pattern.MustParse("a*[/b]"), idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(sq, context.Background()); len(got) != 0 {
		t.Fatalf("empty forest yielded %d answers", len(got))
	}
	for range sq.Embeddings(context.Background()) {
		t.Fatal("empty forest yielded an embedding")
	}
}

// TestAbsentType compiles a query naming a type the forest lacks: its
// admission set is the index's shared empty row, so nothing answers.
func TestAbsentType(t *testing.T) {
	f := data.GeneratePublishing(rand.New(rand.NewSource(3)), 10)
	idx := match.NewForestIndex(f)
	for _, src := range []string{"Zz*", "Article//Zz*", "Article*[//Zz]", "Article*[/Title{Zz}]"} {
		sq, err := Compile(pattern.MustParse(src), idx, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if n := sq.Count(context.Background()); n != 0 {
			t.Fatalf("%s: %d answers over a forest without Zz", src, n)
		}
	}
}

// TestEmbeddingAccessors covers the Embedding API surface and the reuse /
// Clone contract.
func TestEmbeddingAccessors(t *testing.T) {
	root := data.NewNode("a")
	b := root.Child("b")
	c := b.Child("c")
	f := data.NewForest(root)
	q := pattern.MustParse("a[//c]/b*")
	sq, err := Compile(q, match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var kept []Embedding
	var raw []Embedding
	for e := range sq.Embeddings(context.Background()) {
		if e.Len() != 3 {
			t.Fatalf("Len=%d, want 3", e.Len())
		}
		if e.Answer() != b {
			t.Fatalf("Answer=%v", e.Answer())
		}
		if e.At(0) != root {
			t.Fatalf("At(0)=%v", e.At(0))
		}
		star := q.OutputNode()
		if e.Binding(star) != b {
			t.Fatalf("Binding(star)=%v", e.Binding(star))
		}
		if got := e.Binding(pattern.NewNode("b")); got != nil {
			t.Fatalf("Binding of a node outside the pattern = %v, want nil", got)
		}
		if e.PatternNode(0) != q.Root {
			t.Fatal("PatternNode(0) is not the root")
		}
		kept = append(kept, e.Clone())
		raw = append(raw, e)
	}
	if len(kept) != 1 {
		t.Fatalf("got %d embeddings, want 1", len(kept))
	}
	if kept[0].At(1) == nil || kept[0].Answer() != b || kept[0].Binding(q.Root) != root {
		t.Fatal("cloned embedding lost its assignment")
	}
	_ = c
	_ = raw
}

// TestDeepPathFeasibility exercises the upward path test through stacked
// same-type ancestors, where the d-edge must try several ancestors before
// one fits.
func TestDeepPathFeasibility(t *testing.T) {
	// a(x) / a / a(x) / b — only the a's with an x child admit the path.
	top := data.NewNode("a")
	top.Child("x")
	mid := top.Child("a")
	inner := mid.Child("a")
	inner.Child("x")
	leaf := inner.Child("b")
	f := data.NewForest(top)
	q := pattern.MustParse("a[/x]//b*")
	sq, err := Compile(q, match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(sq, context.Background())
	if len(got) != 1 || got[0] != leaf {
		t.Fatalf("got %v, want [%d]", ids(got), leaf.ID)
	}
	if want := ids(oracle.BindingsMap(q, f)[q.OutputNode()]); !equalIDs(ids(got), want) {
		t.Fatalf("streamed %v, reference %v", ids(got), want)
	}
}

// TestUnionAnswers checks the union merge against the per-query answer
// sets merged by hand, for zero, one (the direct path, no merge) and
// several queries: document order, no duplicates, nothing lost.
func TestUnionAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		f := randomForest(rng, 1+rng.Intn(60), 4)
		idx := match.NewForestIndex(f)
		qs := make([]*Query, i%4)
		seen := map[int]bool{}
		for k := range qs {
			q := randomQuery(rng, 1+rng.Intn(5), 4)
			sq, err := Compile(q, idx, Options{})
			if err != nil {
				t.Fatalf("case %d: compile %s: %v", i, q, err)
			}
			qs[k] = sq
			for _, id := range ids(collect(sq, context.Background())) {
				seen[id] = true
			}
		}
		var want []int
		for _, v := range f.Nodes() {
			if seen[v.ID] {
				want = append(want, v.ID)
			}
		}
		var got []int
		for v := range UnionAnswers(context.Background(), qs) {
			got = append(got, v.ID)
		}
		if !equalIDs(want, got) {
			t.Fatalf("case %d: %d queries: merged answers %v, streamed union %v", i, len(qs), want, got)
		}
	}
}

// TestUnionAnswersConcurrent ranges over UnionAnswers and Answers of the
// same compiled queries from several goroutines at once: every range owns
// its run state, so each must see the serial answers. Run it under -race.
func TestUnionAnswersConcurrent(t *testing.T) {
	f := data.GeneratePublishing(rand.New(rand.NewSource(5)), 40)
	idx := match.NewForestIndex(f)
	var qs []*Query
	for _, src := range []string{"Article[/Title]//Paragraph*", "Section*[/Paragraph]", "Article//Section*//Paragraph"} {
		sq, err := Compile(pattern.MustParse(src), idx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, sq)
	}
	drain := func(seq iter.Seq[*data.Node]) []int {
		var out []int
		for v := range seq {
			out = append(out, v.ID)
		}
		return out
	}
	ctx := context.Background()
	wantUnion := drain(UnionAnswers(ctx, qs))
	want := make([][]int, len(qs))
	for i, q := range qs {
		want[i] = drain(q.Answers(ctx))
	}
	if len(wantUnion) == 0 {
		t.Fatal("workload produced no answers")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := drain(UnionAnswers(ctx, qs)); !equalIDs(got, wantUnion) {
					t.Errorf("goroutine %d: union %v, serial %v", g, got, wantUnion)
					return
				}
				i := (g + rep) % len(qs)
				if got := drain(qs[i].Answers(ctx)); !equalIDs(got, want[i]) {
					t.Errorf("goroutine %d: query %d answers %v, serial %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
