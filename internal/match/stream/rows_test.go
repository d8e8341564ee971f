package stream

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/genquery"
	"tpq/internal/match"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// deepForest builds a forest of about size nodes whose trees are deep:
// each node hangs under one of the few nodes created just before it, so
// parents, children and subtree intervals straddle row words.
func deepForest(rng *rand.Rand, size, alphabet int) *data.Forest {
	var nodes []*data.Node
	var roots []*data.Node
	for len(nodes) < size {
		v := data.NewNode(genquery.T(rng.Intn(alphabet)))
		if rng.Intn(3) == 0 {
			v.AddType(genquery.T(rng.Intn(alphabet)))
		}
		if len(nodes) == 0 || rng.Intn(200) == 0 {
			roots = append(roots, v)
		} else {
			back := 1 + rng.Intn(min(len(nodes), 4))
			nodes[len(nodes)-back].AddChild(v)
		}
		nodes = append(nodes, v)
	}
	return data.NewForest(roots...)
}

// TestRowsAcrossWords is the differential sweep at sizes where rows span
// many words: on wide random forests and on deep ones, every pass's
// cross-word reads (a parent or a child in another word, an interval
// crossing word boundaries) must give the reference answers, and Count
// must equal the number of answers yielded.
func TestRowsAcrossWords(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < 300; i++ {
		q := randomQuery(rng, 1+rng.Intn(10), 3)
		size := 100 + rng.Intn(900)
		var f *data.Forest
		if i%2 == 0 {
			f = randomForest(rng, size, 3)
		} else {
			f = deepForest(rng, size, 3)
		}
		idx := match.NewForestIndex(f)
		sq, err := Compile(q, idx, Options{})
		if err != nil {
			t.Fatalf("case %d: compile %s: %v", i, q, err)
		}
		want := ids(oracle.BindingsMap(q, f)[q.OutputNode()])
		got := ids(collect(sq, context.Background()))
		if !equalIDs(want, got) {
			t.Fatalf("case %d: query %s over %d nodes: reference answers %v, streamed %v", i, q, f.Size(), want, got)
		}
		if n := sq.Count(context.Background()); n != len(want) {
			t.Fatalf("case %d: query %s: Count %d, %d answers", i, q, n, len(want))
		}
	}
}

// chainForest returns a single chain of n nodes whose types cycle
// through types, with a leaf of type leaf hung under the root when leaf
// is non-empty.
func chainForest(n int, leaf pattern.Type, types ...pattern.Type) *data.Forest {
	root := data.NewNode(types[0])
	if leaf != "" {
		root.Child(leaf)
	}
	v := root
	for i := 1; i < n; i++ {
		v = v.Child(types[i%len(types)])
	}
	return data.NewForest(root)
}

// TestDeepChain pins the linear bound on the shape where walking up from
// every answer candidate is quadratic: a[/c]//b* over a 100,000-node a/b
// chain (tpqd's default inline-document limit) must return the exact
// count well inside a 2 s deadline.
func TestDeepChain(t *testing.T) {
	const n = 100_000
	f := chainForest(n-1, "c", "a", "b")
	sq, err := Compile(pattern.MustParse("a[/c]//b*"), match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	got := sq.Count(ctx)
	t.Logf("Count over %d nodes took %v", f.Size(), time.Since(start))
	if ctx.Err() != nil {
		t.Fatalf("Count over a %d-node chain ran past 2s: %v", f.Size(), ctx.Err())
	}
	if want := (n - 1) / 2; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

// deepPattern builds a[/c]//a[/c]//…//a*[/c] with pathLen path nodes,
// plus, under the root, a complete binary tree of a-nodes over d-edges
// with depth levels: the path stresses the top-down pass and the tree
// the bottom-up pass's row count.
func deepPattern(pathLen, depth int) *pattern.Pattern {
	var tree func(d int) *pattern.Node
	tree = func(d int) *pattern.Node {
		u := pattern.NewNode("a")
		if d > 1 {
			u.AddChild(pattern.Descendant, tree(d-1))
			u.AddChild(pattern.Descendant, tree(d-1))
		}
		return u
	}
	root := pattern.NewNode("a")
	root.AddChild(pattern.Descendant, tree(depth))
	u := root
	for i := 0; ; i++ {
		u.AddChild(pattern.Child, pattern.NewNode("c"))
		if i == pathLen-1 {
			break
		}
		u = u.AddChild(pattern.Descendant, pattern.NewNode("a"))
	}
	u.Star = true
	return pattern.New(root)
}

// TestRowBound pins the memory bound: one Count, run with the scratch
// pool emptied, allocates at most ⌊log₂ k⌋ + 4 rows of ⌈n/64⌉ words for
// a k-node pattern — here a 1,000-node path over a chain deep enough to
// answer it, with a 255-node binary branch — however long the path.
func TestRowBound(t *testing.T) {
	p := deepPattern(1000, 8)
	k := p.Size()
	// A 3,000-node a-chain with a c under every a, beside a flat tree of
	// 30,000 x leaves that makes rows wide enough to dwarf the run's
	// fixed-size allocations.
	root := data.NewNode("a")
	v := root
	for i := 0; i < 3000; i++ {
		v.Child("c")
		v = v.Child("a")
	}
	flat := data.NewNode("x")
	for i := 0; i < 30_000; i++ {
		flat.Child("x")
	}
	f := data.NewForest(root, flat)
	sq, err := Compile(p, match.NewForestIndex(f), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The output binds to every a at depth 999 or more with a c child:
	// all but the first 999 of the chain's 3,000, and the bottom a.
	const want = 3000 - 999
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	got := sq.Count(context.Background())
	runtime.ReadMemStats(&after)
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	rows := bits.Len(uint(k)) - 1 + 4
	bound := uint64(rows * 8 * bitset.WordsFor(f.Size()))
	used := after.TotalAlloc - before.TotalAlloc
	t.Logf("k=%d: one Count allocated %d bytes, bound %d", k, used, bound)
	if used > bound {
		t.Fatalf("k=%d: Count allocated %d bytes, bound %d (%d rows of %d words)", k, used, bound, rows, bitset.WordsFor(f.Size()))
	}
}

// TestSteadyStateAllocs pins that a warmed Count runs out of pooled rows:
// a small constant number of allocations, the same at 4x the answers.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under -race")
	}
	var per []float64
	var answers []int
	for _, articles := range []int{50, 200} {
		f := data.GeneratePublishing(rand.New(rand.NewSource(6)), articles)
		sq, err := Compile(pattern.MustParse("Article[/Title]//Section*[/Paragraph]"), match.NewForestIndex(f), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		answers = append(answers, sq.Count(ctx))
		per = append(per, testing.AllocsPerRun(20, func() { sq.Count(ctx) }))
		cancel()
	}
	if answers[0] == 0 || answers[1] <= answers[0] {
		t.Fatalf("workload answers %v do not grow", answers)
	}
	if per[0] != per[1] || per[1] > 1 {
		t.Fatalf("warmed Count allocates %v times at %v answers, want the same ≤1", per, answers)
	}
}

// TestRowPrimitivesAlias drives the row passes directly, on a run built
// the way production builds one, against the pointer-walk definitions:
// lift along a c-edge and a d-edge in every aliasing fold and allRows
// use — the result in the mask's row (an owned mask), in S(c)'s row (an
// owned S(c)) or in a fresh row — with every unowned input left
// unwritten, and the two in-place top-down steps.
func TestRowPrimitivesAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 100; trial++ {
		f := deepForest(rng, 64+rng.Intn(400), 3)
		nodes := f.Nodes()
		idx := match.NewForestIndex(f)
		// The root's children are inner nodes, one per edge kind, so lift
		// runs its kernels on them rather than a leaf's lift row.
		q, err := Compile(pattern.MustParse("t0*[/t1/t0, //t2/t0]"), idx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		inner := map[string]int{}
		for i := 1; i < q.k; i++ {
			if len(q.kids[i]) == 0 {
				continue
			}
			if q.pat.Nodes[i].Edge == pattern.Child {
				inner["liftChild"] = i
			} else {
				inner["liftDesc"] = i
			}
		}
		if len(inner) != 2 {
			t.Fatalf("compiled pattern has inner children %v, want one per edge kind", inner)
		}
		r := newRun(context.Background(), q)
		pick := func() bitset.Set {
			s := bitset.New(len(nodes))
			for i := range nodes {
				if rng.Intn(3) == 0 {
					s.Add(i)
				}
			}
			return s
		}
		mask, src := pick(), pick()
		want := map[string][]bool{}
		for _, name := range []string{"liftChild", "liftDesc", "belowChild", "belowDesc"} {
			w := make([]bool, len(nodes))
			for _, v := range nodes {
				switch name {
				case "liftChild":
					for _, c := range v.Children {
						w[v.ID] = w[v.ID] || (mask.Has(v.ID) && src.Has(c.ID))
					}
				case "liftDesc":
					for _, d := range nodes {
						w[v.ID] = w[v.ID] || (mask.Has(v.ID) && v.IsAncestorOf(d) && src.Has(d.ID))
					}
				case "belowChild":
					w[v.ID] = mask.Has(v.ID) && v.Parent != nil && src.Has(v.Parent.ID)
				case "belowDesc":
					for _, a := range nodes {
						w[v.ID] = w[v.ID] || (mask.Has(v.ID) && a.IsAncestorOf(v) && src.Has(a.ID))
					}
				}
			}
			want[name] = w
		}
		check := func(name, how string, got bitset.Set) {
			for i, w := range want[name] {
				if got.Has(i) != w {
					t.Fatalf("trial %d: %s: bit %d = %v, want %v", trial, how, i, got.Has(i), w)
				}
			}
		}
		clone := func(s bitset.Set) bitset.Set {
			row := r.row()
			copy(row, s)
			return row
		}
		pristineMask, pristineSrc := clone(mask), clone(src)
		for _, name := range []string{"liftChild", "liftDesc"} {
			for _, owned := range []bool{false, true} {
				for _, sOwned := range []bool{false, true} {
					row, s := mask, src
					if owned {
						row = clone(mask)
					}
					if sOwned {
						s = clone(src)
					}
					got, gotOwned := r.lift(row, owned, s, sOwned, inner[name])
					how := fmt.Sprintf("%s (mask owned %v, S(c) owned %v)", name, owned, sOwned)
					check(name, how, got)
					switch {
					case !gotOwned:
						t.Fatalf("trial %d: %s: result is not a scratch row", trial, how)
					case owned && &got[0] != &row[0]:
						t.Fatalf("trial %d: %s: result is not the mask's row", trial, how)
					case !owned && sOwned && &got[0] != &s[0]:
						t.Fatalf("trial %d: %s: result is not S(c)'s row", trial, how)
					case !mask.Equal(pristineMask) || !src.Equal(pristineSrc):
						t.Fatalf("trial %d: %s: wrote an unowned input", trial, how)
					}
					r.put(got)
				}
			}
		}
		s := clone(src)
		q.t.BelowChild(s, mask, r.poll)
		check("belowChild", "belowChild", s)
		r.put(s)
		s = clone(src)
		q.t.BelowDesc(s, mask, r.poll)
		check("belowDesc", "belowDesc", s)
		r.put(s)
		r.release()
	}
}
