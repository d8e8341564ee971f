package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"tpq/internal/chase"
	"tpq/internal/data"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// publishingQueries returns n distinct random 18-22-node queries over the
// publishing types, Title drawn twice as often, the shape of a cold
// /minimize miss.
func publishingQueries(n int, seed int64) []*pattern.Pattern {
	types := []pattern.Type{"Title", "Articles", "Article", "Title", "Author", "LastName", "FirstName", "Section", "Paragraph"}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var qs []*pattern.Pattern
	for len(qs) < n {
		nodes := []*pattern.Node{pattern.NewNode(types[rng.Intn(len(types))])}
		for size := 18 + rng.Intn(5); len(nodes) < size; {
			child := pattern.NewNode(types[rng.Intn(len(types))])
			nodes = append(nodes, nodes[rng.Intn(len(nodes))].AddChild(pattern.EdgeKind(rng.Intn(2)), child))
		}
		nodes[rng.Intn(len(nodes))].Star = true
		q := pattern.New(nodes[0])
		if c := q.Canonical(); !seen[c] {
			seen[c] = true
			qs = append(qs, q)
		}
	}
	return qs
}

func publishingMinimizer() *Minimizer {
	cs := data.PublishingConstraints()
	cs.Add(ics.ForbidChild("Title", "Section"))
	return New(Options{Constraints: cs})
}

// TestMinimizeAllocs pins the allocations of a cold minimization: the
// unsatisfiability check, the CDM sweep, the chase and the CIM engine run
// on one flattened layout in pooled scratch, so what is left is the
// private copy of the query and the removals' bookkeeping. The bound
// keeps the witness arenas of pointer temporaries from coming back:
// they made 13 of the 45 allocations a run took with them.
func TestMinimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under -race")
	}
	const maxPerQuery = 36
	m := publishingMinimizer()
	qs := publishingQueries(20, 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		for _, q := range qs {
			if _, err := m.MinimizeContextTraced(ctx, q, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	per := allocs / float64(len(qs))
	t.Logf("%.1f allocations per minimization", per)
	if per > maxPerQuery {
		t.Errorf("%.1f allocations per minimization, want at most %d", per, maxPerQuery)
	}
}

// TestAugmentAllocs pins augmentation into a warmed pooled scratch at
// zero allocations: the witnesses are ordinals of the layout, copied from
// the instance's templates, not pattern nodes. The query is the 20-node
// publishing query the root package's BenchmarkContainmentAugmented
// maps, which gains 14 witnesses.
func TestAugmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under -race")
	}
	types := []pattern.Type{"Articles", "Article", "Title", "Author", "LastName", "FirstName", "Section", "Paragraph"}
	rng := rand.New(rand.NewSource(1))
	nodes := []*pattern.Node{pattern.NewNode("Articles")}
	for len(nodes) < 20 {
		child := pattern.NewNode(types[rng.Intn(len(types))])
		nodes = append(nodes, nodes[rng.Intn(len(nodes))].AddChild(pattern.EdgeKind(rng.Intn(2)), child))
	}
	nodes[len(nodes)-1].Star = true
	q := pattern.New(nodes[0])
	pl := chase.Compile(data.PublishingConstraints().Closure())
	augment := func() int {
		s := chase.GetScratch(pl)
		s.Flatten(q)
		added := s.Augment(nil)
		s.Release()
		return added
	}
	if added := augment(); added != 14 {
		t.Fatalf("augmentation added %d witnesses, want 14", added)
	}
	if allocs := testing.AllocsPerRun(100, func() { augment() }); allocs != 0 {
		t.Errorf("augmenting into a warmed scratch allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentMinimizeMatchesSerial runs distinct queries through one
// Minimizer from several goroutines at once: each output must equal the
// serial run's. The pooled scratch is shared state across runs; run it
// under -race.
func TestConcurrentMinimizeMatchesSerial(t *testing.T) {
	m := publishingMinimizer()
	qs := publishingQueries(64, 2)
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = run(t, m, q, nil).Output.String()
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(qs))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(qs); i += workers {
				r, err := m.MinimizeContextTraced(context.Background(), qs[i], nil)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if got := r.Output.String(); got != want[i] {
					errs <- qs[i].String() + ": concurrent " + got + ", serial " + want[i]
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
