package chase

import (
	"fmt"
	"sync"
	"testing"

	"tpq/internal/ics"
	"tpq/internal/pattern"
	"tpq/internal/trace"
)

func TestRegistryHitsAndEviction(t *testing.T) {
	reg := NewRegistry(2)
	sets := []*ics.Set{
		ics.NewSet(ics.Child("a", "b")),
		ics.NewSet(ics.Child("a", "c")),
		ics.NewSet(ics.Child("a", "d")),
	}
	p0 := reg.PlanFor(sets[0])
	if again := reg.PlanFor(sets[0]); again != p0 {
		t.Fatal("second lookup of the same set returned a different plan")
	}
	reg.PlanFor(sets[1])
	reg.PlanFor(sets[2]) // evicts sets[0], the least recently used
	st := reg.Stats()
	if st.Compiled != 3 || st.Hits != 1 || st.Evictions != 1 || st.Len != 2 || st.Cap != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The evicted set recompiles to a fresh, still-correct plan.
	if p0b := reg.PlanFor(sets[0]); p0b == p0 {
		t.Error("evicted plan was returned again")
	}
	if st := reg.Stats(); st.Compiled != 4 {
		t.Errorf("recompile not counted: %+v", st)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// Hammer one small registry from many goroutines over more sets than
	// it can hold, augmenting through whatever plan comes back. Run under
	// -race this doubles as the data-race check on Plan/Instance sharing.
	reg := NewRegistry(2)
	sets := make([]*ics.Set, 4)
	for i := range sets {
		sets[i] = ics.NewSet(
			ics.Child("a", pattern.Type(fmt.Sprintf("w%d", i))),
			ics.Child(pattern.Type(fmt.Sprintf("w%d", i)), "b"),
			ics.Co("a", "m"),
		).Closure()
	}
	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cs := sets[(g+i)%len(sets)]
				pl := reg.PlanFor(cs)
				if pl.Fingerprint() != cs.Fingerprint() {
					t.Errorf("plan fingerprint %q for set %q", pl.Fingerprint(), cs.Fingerprint())
					return
				}
				q := pattern.MustParse("a*[/b, //m]")
				s, got := pl.Augment(q, nil)
				s.Release()
				s, want := Compile(cs).Augment(q, nil)
				s.Release()
				if got != want {
					t.Errorf("registry plan added %d, fresh plan %d", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := reg.Stats()
	if total := st.Compiled + st.Hits; total != goroutines*iters {
		t.Errorf("compiled %d + hits %d != %d lookups", st.Compiled, st.Hits, goroutines*iters)
	}
	if st.Len > st.Cap {
		t.Errorf("registry over capacity: %+v", st)
	}
}

func TestSpecializeCachesInstances(t *testing.T) {
	pl := Compile(ics.NewSet(ics.Child("a", "b"), ics.Desc("c", "d")).Closure())
	base1 := map[pattern.Type]bool{"a": true, "x": true}
	base2 := map[pattern.Type]bool{"a": true, "c": true}
	in1 := pl.Specialize(base1)
	if again := pl.Specialize(map[pattern.Type]bool{"x": true, "a": true}); again != in1 {
		t.Error("same base shape (set-type projection) built a second instance")
	}
	if in2 := pl.Specialize(base2); in2 == in1 {
		t.Error("different base shapes shared an instance")
	}
	// Types outside the constraint set do not change the shape key.
	if in3 := pl.Specialize(map[pattern.Type]bool{"a": true, "zzz": true}); in3 != in1 {
		t.Error("non-set type changed the specialization key")
	}
}

// TestInstanceCacheEviction fills a plan's instance cache with
// instanceCacheCap distinct type-set shapes, refreshes the oldest, and
// checks that one shape more evicts the least recently used instance —
// the second shape built — and nothing else.
func TestInstanceCacheEviction(t *testing.T) {
	var cons []ics.Constraint
	for i := 0; i < 6; i++ {
		cons = append(cons, ics.Child(pattern.Type(fmt.Sprintf("t%d", i)), "u"))
	}
	pl := Compile(ics.NewSet(cons...).Closure())
	// shape(m) is the type set {t_i : bit i of m set}: 64 distinct shapes.
	shape := func(m int) map[pattern.Type]bool {
		base := map[pattern.Type]bool{}
		for i := 0; i < 6; i++ {
			if m&(1<<i) != 0 {
				base[pattern.Type(fmt.Sprintf("t%d", i))] = true
			}
		}
		return base
	}
	built := make([]*Instance, instanceCacheCap+1)
	for m := 0; m < instanceCacheCap; m++ {
		built[m] = pl.Specialize(shape(m))
	}
	if again := pl.Specialize(shape(0)); again != built[0] {
		t.Fatal("refreshing shape 0 built a second instance")
	}
	built[instanceCacheCap] = pl.Specialize(shape(instanceCacheCap))
	if n := pl.inst.Len(); n != instanceCacheCap {
		t.Fatalf("instance cache holds %d, want %d", n, instanceCacheCap)
	}
	for m := 0; m <= instanceCacheCap; m++ {
		if m == 1 {
			continue
		}
		if again := pl.Specialize(shape(m)); again != built[m] {
			t.Errorf("shape %d was evicted, want it cached", m)
		}
	}
	if again := pl.Specialize(shape(1)); again == built[1] {
		t.Error("shape 1, the least recently used, survived the insert past capacity")
	}
}

func TestPlanForTracedCounters(t *testing.T) {
	// Fresh, never-before-seen set: first traced lookup compiles, second
	// hits. Uses the default registry deliberately — that is what the
	// pipeline calls.
	cs := ics.NewSet(ics.Child("traced-only-a", "traced-only-b")).Closure()
	tr := trace.New()
	PlanForTraced(cs, tr)
	if c, h := tr.Count(trace.PlansCompiled), tr.Count(trace.PlanHits); c != 1 || h != 0 {
		t.Fatalf("first lookup: compiled=%d hits=%d", c, h)
	}
	PlanForTraced(cs, tr)
	if c, h := tr.Count(trace.PlansCompiled), tr.Count(trace.PlanHits); c != 1 || h != 1 {
		t.Fatalf("second lookup: compiled=%d hits=%d", c, h)
	}
}

func TestPlanNilAndEmptyInputs(t *testing.T) {
	pl := PlanFor(nil)
	if pl == nil {
		t.Fatal("PlanFor(nil) returned nil")
	}
	q := pattern.MustParse("a*/b")
	s, added := pl.Augment(q, nil)
	defer s.Release()
	if added != 0 || len(s.Nodes) != 2 {
		t.Errorf("empty plan added %d nodes, layout has %d", added, len(s.Nodes))
	}
	if w := pl.Wanted(q.TypeSet()); len(w) != len(q.TypeSet()) {
		t.Errorf("empty plan wanted = %v", w)
	}
}
