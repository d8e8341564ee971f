package match_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tpq/internal/bitset"
	"tpq/internal/data"
	"tpq/internal/match"
	"tpq/internal/match/stream"
	"tpq/internal/pattern"
)

// countIndexed counts p's answers over idx on the twig engine, -1 when p
// does not compile.
func countIndexed(p *pattern.Pattern, idx *match.ForestIndex) int {
	q, err := stream.Compile(p, idx, stream.Options{})
	if err != nil {
		return -1
	}
	return q.Count(context.Background())
}

func TestIndexedBasic(t *testing.T) {
	f := library()
	idx := match.NewForestIndex(f)
	cases := []struct {
		src  string
		want int
	}{
		{"Book*", 2},
		{"Book*[/Title, /Author]", 1},
		{"Book*//LastName", 1},
		{"Library//Title*", 2},
		{"Book*/LastName", 0},
		{"Missing*", 0},
	}
	for _, c := range cases {
		p := pattern.MustParse(c.src)
		if got := countIndexed(p, idx); got != c.want {
			t.Errorf("countIndexed(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

// TestIndexedCandidates checks the admission rows compiled from the
// index: a node's types are ANDed, and its conditions filter the result.
func TestIndexedCandidates(t *testing.T) {
	org := data.NewNode("Org")
	org.Child("Employee", "Person").SetAttr("age", 30)
	org.Child("Employee").SetAttr("age", 40)
	org.Child("Employee", "Person").SetAttr("age", 20)
	f := data.NewForest(org)
	idx := match.NewForestIndex(f)
	for _, c := range []struct {
		src  string
		want int
	}{
		{"Employee*", 3},
		{"Employee{Person}*", 2},
		{"Employee*(@age>25)", 2},
		{"Employee{Person}*(@age>25)", 1},
		{"Org/Employee{Person}*(@age<25)", 1},
		{"Employee{Person}*(@age>50)", 0},
	} {
		if got := countIndexed(pattern.MustParse(c.src), idx); got != c.want {
			t.Errorf("%s: %d answers, want %d", c.src, got, c.want)
		}
	}
}

func TestIndexedEmpty(t *testing.T) {
	idx := match.NewForestIndex(data.NewForest())
	if got := countIndexed(pattern.MustParse("a*"), idx); got != 0 {
		t.Errorf("empty forest matched %d", got)
	}
	if got := countIndexed(&pattern.Pattern{}, match.NewForestIndex(library())); got != -1 {
		t.Errorf("empty pattern counted %d", got)
	}
}

func TestIndexedNestedAncestors(t *testing.T) {
	// Nested same-type ancestors: a(a(a(b))) with pattern a//b*, whose
	// descendant step must not count the nested intervals twice.
	root := data.NewNode("a")
	mid := root.Child("a")
	inner := mid.Child("a")
	inner.Child("b")
	root.Child("x").Child("b") // b under x: also below the root a
	f := data.NewForest(root)
	idx := match.NewForestIndex(f)
	if got := countIndexed(pattern.MustParse("a//b*"), idx); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	// Deep chain: only the innermost a has a direct b child.
	if got := countIndexed(pattern.MustParse("a/b*"), idx); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

// TestDescendantFilterProperty checks the index's preorder arrays
// against the forest's pointers on random forests: Target's Up gives every
// node's parent, and the interval (v, End[v]] holds exactly v's proper
// descendants — the descendant filter every engine pass relies on.
func TestDescendantFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		f := randomForest(rng, 1+rng.Intn(200))
		idx := match.NewForestIndex(f)
		parent, end := idx.Target().Up, idx.Target().End
		nodes := f.Nodes()
		for _, v := range nodes {
			want := int32(-1)
			if v.Parent != nil {
				want = int32(v.Parent.ID)
			}
			if parent[v.ID] != want {
				t.Fatalf("trial %d: node %d: parent %d, want %d", trial, v.ID, parent[v.ID], want)
			}
			for _, w := range nodes {
				if in := w.ID > v.ID && w.ID <= int(end[v.ID]); in != v.IsAncestorOf(w) {
					t.Fatalf("trial %d: node %d: end %d places %d inside = %v, ancestry says %v",
						trial, v.ID, end[v.ID], w.ID, in, v.IsAncestorOf(w))
				}
			}
		}
	}
}

// TestTypeBitsAbsentTypes pins that rows are cached only for types the
// forest carries: a shared index serves every query's type names, so a
// cached row per absent name would grow the heap for good.
func TestTypeBitsAbsentTypes(t *testing.T) {
	idx := match.NewForestIndex(library())
	book := idx.TypeBits("Book")
	if book.Count() != 2 {
		t.Fatalf("TypeBits(Book) has %d members, want 2", book.Count())
	}
	for i := 0; i < 1000; i++ {
		if s := idx.TypeBits(pattern.Type(fmt.Sprintf("Zz%d", i))); s.Any() || len(s) != len(book) {
			t.Fatalf("absent type %d: row of %d words with members %v", i, len(s), s.Any())
		}
	}
	if n := match.CachedTypeRows(idx); n != 1 {
		t.Fatalf("cache holds %d rows after 1,000 absent types, want 1", n)
	}
}

// bruteLift returns the parents (c-edge) or proper ancestors (d-edge) of
// f's nodes carrying ty, by parent pointers; any kind but Child is a
// d-edge, as EdgeKind.String renders it.
func bruteLift(f *data.Forest, ty pattern.Type, e pattern.EdgeKind) bitset.Set {
	want := bitset.New(f.Size())
	for _, v := range f.Nodes() {
		if !v.HasType(ty) {
			continue
		}
		for a := v.Parent; a != nil; a = a.Parent {
			want.Add(a.ID)
			if e == pattern.Child {
				break
			}
		}
	}
	return want
}

// TestLiftBits pins the index's leaf lift rows against the forest's
// pointers on random deep forests: for every type and both edge kinds,
// LiftBits holds exactly the parents (c-edge) or proper ancestors
// (d-edge) of the type's nodes. An edge kind other than Child lifts as a
// d-edge and shares its cached row. Lifting a type the forest lacks
// returns the shared zero row and caches nothing, as TypeBits does.
func TestLiftBits(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	types := []pattern.Type{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		// Each node hangs under one of the few created just before it, so
		// trees are deep and parents straddle row words.
		var roots, all []*data.Node
		for size := 1 + rng.Intn(600); len(all) < size; {
			v := data.NewNode(types[rng.Intn(len(types))])
			if rng.Intn(4) == 0 {
				v.AddType(types[rng.Intn(len(types))])
			}
			if len(all) == 0 || rng.Intn(100) == 0 {
				roots = append(roots, v)
			} else {
				all[len(all)-1-rng.Intn(min(len(all), 4))].AddChild(v)
			}
			all = append(all, v)
		}
		f := data.NewForest(roots...)
		idx := match.NewForestIndex(f)
		for _, e := range []pattern.EdgeKind{pattern.Child, pattern.Descendant} {
			if s := idx.LiftBits("absent", e); s.Any() || len(s) != bitset.WordsFor(f.Size()) {
				t.Fatalf("trial %d: absent type, %v-edge: row of %d words with members %v", trial, e, len(s), s.Any())
			}
		}
		if n := match.CachedTypeRows(idx); n != 0 {
			t.Fatalf("trial %d: lifting an absent type cached %d rows", trial, n)
		}
		for _, ty := range types {
			for _, e := range []pattern.EdgeKind{pattern.Child, pattern.Descendant, 5} {
				want := bruteLift(f, ty, e)
				got := idx.LiftBits(ty, e)
				for id := 0; id < f.Size(); id++ {
					if got.Has(id) != want.Has(id) {
						t.Fatalf("trial %d: LiftBits(%s, %d): node %d = %v, want %v", trial, ty, e, id, got.Has(id), want.Has(id))
					}
				}
			}
			if a, b := idx.LiftBits(ty, 5), idx.LiftBits(ty, pattern.Descendant); len(a) > 0 && &a[0] != &b[0] {
				t.Fatalf("trial %d: an out-of-range edge kind built its own lift row of %s", trial, ty)
			}
		}
	}
}

// TestIndexRowsConcurrent fills a fresh index's type and lift rows from
// several goroutines at once, as concurrent /match requests compiling
// over tpqd's shared index do: every caller gets the one cached row, and
// it is the right one.
func TestIndexRowsConcurrent(t *testing.T) {
	f := randomForest(rand.New(rand.NewSource(9)), 300)
	idx := match.NewForestIndex(f)
	types := []pattern.Type{"a", "b", "c", "d"}
	const workers = 4
	rows := make([]map[string]bitset.Set, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make(map[string]bitset.Set)
			for i := range types {
				ty := types[(g+i)%len(types)]
				got[string(ty)+"/"] = idx.LiftBits(ty, pattern.Child)
				got[string(ty)] = idx.TypeBits(ty)
				got[string(ty)+"//"] = idx.LiftBits(ty, pattern.Descendant)
			}
			rows[g] = got
		}(g)
	}
	wg.Wait()
	for _, ty := range types {
		for key, want := range map[string]bitset.Set{
			string(ty):        idx.TypeBits(ty),
			string(ty) + "/":  bruteLift(f, ty, pattern.Child),
			string(ty) + "//": bruteLift(f, ty, pattern.Descendant),
		} {
			for g := range rows {
				got := rows[g][key]
				if !got.Equal(want) || &got[0] != &rows[0][key][0] {
					t.Fatalf("goroutine %d: row %q differs from the cached row", g, key)
				}
			}
		}
	}
}
