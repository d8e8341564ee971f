package bench

import (
	"strings"
	"testing"
	"time"
)

// fast makes every experiment cheap enough for the unit-test run; the
// real sweeps happen in cmd/tpqbench and the root benchmarks.
var fast = Options{MinRuns: 1, Budget: time.Microsecond, Quick: true}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", XLabel: "x", YLabel: "t", Comment: "flat"}
	tab.Add("a", 1, 1500*time.Nanosecond)
	tab.Add("b", 1, 2*time.Microsecond)
	tab.Add("a", 2, 3*time.Microsecond)
	s := tab.String()
	for _, want := range []string{"# demo", "flat", "1.5", "3.0", "a", "b", "-"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "series,x,micros\n") || !strings.Contains(csv, "a,1,1.500") {
		t.Errorf("CSV output wrong:\n%s", csv)
	}
	if got := tab.Series(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Series = %v", got)
	}
}

func TestMeasureTakesMinimum(t *testing.T) {
	calls := 0
	d := Measure(Options{MinRuns: 3, Budget: time.Nanosecond}, func() time.Duration {
		calls++
		return time.Duration(calls) * time.Millisecond
	})
	if d != time.Millisecond {
		t.Errorf("Measure = %v, want 1ms (the minimum)", d)
	}
	if calls < 3 {
		t.Errorf("MinRuns not honoured: %d calls", calls)
	}
}

func TestAllFiguresRun(t *testing.T) {
	seen := make(map[string]bool)
	for _, fig := range Figures {
		if seen[fig.ID] {
			t.Errorf("figure id %q listed twice", fig.ID)
		}
		seen[fig.ID] = true
		tab := fig.Run(fast)
		if len(tab.Points) == 0 {
			t.Errorf("%s: no points produced", fig.ID)
		}
		for _, p := range tab.Points {
			if p.Y < 0 {
				t.Errorf("%s: negative measurement %+v", fig.ID, p)
			}
		}
		if tab.Title == "" || tab.XLabel == "" {
			t.Errorf("%s: table missing labels", fig.ID)
		}
	}
}

func TestFigureShapes(t *testing.T) {
	// Cheap sanity checks of the headline claims, with modest statistical
	// care (single CI-friendly run; EXPERIMENTS.md records full runs).
	opts := Options{MinRuns: 3, Budget: 2 * time.Millisecond, Quick: true}

	t.Run("9a CDM beats ACIM", func(t *testing.T) {
		tab := Fig9a(opts)
		// At the largest measured size CDM must be clearly faster.
		maxX := 0.0
		for _, p := range tab.Points {
			if p.X > maxX {
				maxX = p.X
			}
		}
		var acim, cdm time.Duration
		for _, p := range tab.Points {
			if p.X == maxX {
				switch p.Series {
				case "ACIM":
					acim = p.Y
				case "CDM":
					cdm = p.Y
				}
			}
		}
		if cdm <= 0 || acim <= 0 || cdm*2 > acim {
			t.Errorf("expected CDM ≪ ACIM at size %g: CDM=%v ACIM=%v", maxX, cdm, acim)
		}
	})

	t.Run("9b prefilter not materially slower", func(t *testing.T) {
		// At the quick sizes the CDM+ACIM vs direct-ACIM margin is within
		// measurement noise (a dead heat at size 82 even with a 100ms
		// budget — the paper's gap opens at the full-run sizes recorded in
		// EXPERIMENTS.md), so asserting a strict win here is a coin flip.
		// What the smoke test can pin down is the prefilter never becoming
		// *materially* slower: best-of-3 within 1.25x of direct.
		direct, pre := time.Duration(1<<62), time.Duration(1<<62)
		maxX := 0.0
		for attempt := 0; attempt < 3; attempt++ {
			tab := Fig9b(opts)
			for _, p := range tab.Points {
				if p.X > maxX {
					maxX = p.X
				}
			}
			for _, p := range tab.Points {
				if p.X == maxX {
					switch p.Series {
					case "ACIM":
						if p.Y < direct {
							direct = p.Y
						}
					case "CDMACIM":
						if p.Y < pre {
							pre = p.Y
						}
					}
				}
			}
		}
		if pre <= 0 || direct <= 0 || pre*4 > direct*5 {
			t.Errorf("CDMACIM materially slower than ACIM at size %g: pre=%v direct=%v", maxX, pre, direct)
		}
	})

	t.Run("service hot path beats per-call pipeline", func(t *testing.T) {
		hot, uncached := ServiceHotSpeedup(opts)
		// The acceptance figure is 10x on a full run; the smoke test
		// demands a conservative 5x so CI noise cannot flake it.
		if hot <= 0 || uncached <= 0 || hot*5 > uncached {
			t.Errorf("expected cached hot query ≫ per-call pipeline: hot=%v uncached=%v", hot, uncached)
		}
	})

	t.Run("7b tables fraction", func(t *testing.T) {
		tab := Fig7b(opts)
		var total, tables time.Duration
		for _, p := range tab.Points {
			if p.X == 50 {
				switch p.Series {
				case "TotalTime":
					total = p.Y
				case "TablesTime":
					tables = p.Y
				}
			}
		}
		if tables <= 0 || total <= 0 || tables >= total {
			t.Errorf("tables time %v not within total %v", tables, total)
		}
	})
}
