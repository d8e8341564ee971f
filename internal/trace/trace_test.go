package trace

import (
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Start(CIM)
	sp.End()
	tr.AddDur(Chase, time.Second)
	tr.Add(Tests, 7)
	if tr.Dur(Chase) != 0 || tr.Count(Tests) != 0 {
		t.Fatal("nil trace reported nonzero values")
	}
}

func TestSpanAccumulates(t *testing.T) {
	tr := New()
	sp := tr.Start(CDM)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d := tr.Dur(CDM); d < 2*time.Millisecond {
		t.Fatalf("Dur(CDM) = %v, want >= 2ms", d)
	}
	if d := tr.Dur(CIM); d != 0 {
		t.Fatalf("Dur(CIM) = %v, want 0", d)
	}

	// Two spans on the same phase add up.
	before := tr.Dur(CDM)
	sp = tr.Start(CDM)
	time.Sleep(time.Millisecond)
	sp.End()
	if d := tr.Dur(CDM); d < before+time.Millisecond {
		t.Fatalf("second span did not accumulate: %v -> %v", before, d)
	}
}

// TestSpansNest checks the documented nesting invariant: an outer ACIM
// span covers inner Chase/CIM/Compact spans, so the outer duration is at
// least the sum of the inner ones.
func TestSpansNest(t *testing.T) {
	tr := New()
	outer := tr.Start(ACIM)
	for _, p := range []Phase{Chase, CIM, Compact} {
		sp := tr.Start(p)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	outer.End()
	sum := tr.Dur(Chase) + tr.Dur(CIM) + tr.Dur(Compact)
	if tr.Dur(ACIM) < sum {
		t.Fatalf("ACIM %v < chase+cim+compact %v", tr.Dur(ACIM), sum)
	}
}

func TestCountersAndAddDur(t *testing.T) {
	tr := New()
	tr.Add(Tests, 3)
	tr.Add(Tests, 4)
	tr.Add(CDMRemoved, 0) // no-op, must not disturb anything
	if got := tr.Count(Tests); got != 7 {
		t.Fatalf("Count(Tests) = %d, want 7", got)
	}
	tr.AddDur(Parse, 5*time.Microsecond)
	tr.AddDur(Parse, 5*time.Microsecond)
	if got := tr.Dur(Parse); got != 10*time.Microsecond {
		t.Fatalf("Dur(Parse) = %v, want 10µs", got)
	}
}

// TestConcurrentSpans exercises the atomics under -race: many goroutines
// timing the same phase and bumping the same counter.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.Start(CIM)
				tr.Add(Tests, 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Count(Tests); got != workers*100 {
		t.Fatalf("Count(Tests) = %d, want %d", got, workers*100)
	}
	if tr.Dur(CIM) <= 0 {
		t.Fatal("no CIM time accumulated")
	}
}

func TestNames(t *testing.T) {
	want := []string{"parse", "chase", "cdm", "acim", "cim", "compact", "match"}
	for i, p := range Phases() {
		if p.String() != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p.String(), want[i])
		}
	}
	if Phase(250).String() != "unknown" || Counter(250).String() != "unknown" {
		t.Error("out-of-range names should be \"unknown\"")
	}
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		if seen[c.String()] {
			t.Errorf("duplicate counter name %q", c)
		}
		seen[c.String()] = true
	}
}
