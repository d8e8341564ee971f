package service

import (
	"context"
	"testing"

	"tpq/internal/acim"
	"tpq/internal/cdm"
	"tpq/internal/cim"
	"tpq/internal/engine"
	"tpq/internal/genquery"
	"tpq/internal/ics"
	"tpq/internal/pattern"
)

// batchWorkload builds a mixed batch of generated queries with
// redundancy.
func batchWorkload(n int) []*pattern.Pattern {
	var qs []*pattern.Pattern
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			qs = append(qs, genquery.Redundant(8+i%5, 2, 2))
		case 1:
			q, _ := genquery.Chain(5 + i%7)
			qs = append(qs, q)
		case 2:
			q, _ := genquery.Bushy(7+i%3, 2)
			qs = append(qs, q)
		default:
			q, _ := genquery.Star(4 + i%6)
			qs = append(qs, q)
		}
	}
	return qs
}

var batchAlgos = []engine.Algo{engine.Auto, engine.CIM, engine.CDM, engine.ACIM}

// TestBatchMatchesSequential checks that every worker count returns, in
// input order, exactly the result of running each query's algorithm
// directly, for every algorithm. Caching is off, so every query of the
// batch goes through the worker pool to the engine.
func TestBatchMatchesSequential(t *testing.T) {
	qs := batchWorkload(24)
	cs := ics.NewSet(ics.Child("t0", "t1"), ics.Desc("t1", "t2"))
	closed := cs.Closure()
	for _, algo := range batchAlgos {
		var want []string
		for _, q := range qs {
			var out *pattern.Pattern
			switch algo {
			case engine.CIM:
				out = cim.Minimize(q)
			case engine.CDM:
				out = cdm.Minimize(q, closed)
			case engine.ACIM:
				out = acim.Minimize(q, closed)
			default:
				out = acim.Minimize(cdm.Minimize(q, closed), closed)
			}
			want = append(want, out.String())
		}
		for _, workers := range []int{1, 3, 8} {
			svc := New(Options{Constraints: cs, Workers: workers, Algo: algo, CacheSize: -1})
			outs, reps, err := svc.MinimizeBatch(context.Background(), qs)
			if err != nil {
				t.Fatalf("algo=%s workers=%d: %v", algo, workers, err)
			}
			if len(outs) != len(qs) || len(reps) != len(qs) {
				t.Fatalf("algo=%s workers=%d: %d outputs, %d reports for %d queries", algo, workers, len(outs), len(reps), len(qs))
			}
			for i, out := range outs {
				if got := out.String(); got != want[i] {
					t.Errorf("algo=%s workers=%d query %d:\n got  %s\n want %s", algo, workers, i, got, want[i])
				}
				if reps[i].InputSize != qs[i].Size() {
					t.Fatalf("algo=%s workers=%d: report %d is for a %d-node query, input has %d nodes",
						algo, workers, i, reps[i].InputSize, qs[i].Size())
				}
			}
			if got := svc.Stats().Minimizations; got != int64(len(qs)) {
				t.Errorf("algo=%s workers=%d: %d minimizations, want %d", algo, workers, got, len(qs))
			}
		}
	}
}

// TestEmptyAndSmallBatches exercises the pool edge cases: an empty batch,
// and a batch smaller than the pool.
func TestEmptyAndSmallBatches(t *testing.T) {
	svc := New(Options{Workers: 8})
	for _, qs := range [][]*pattern.Pattern{nil, {}} {
		outs, reps, err := svc.MinimizeBatch(context.Background(), qs)
		if err != nil || len(outs) != 0 || len(reps) != 0 {
			t.Fatalf("empty batch: %d outputs, %d reports, err %v", len(outs), len(reps), err)
		}
	}
	outs, reps, err := svc.MinimizeBatch(context.Background(), []*pattern.Pattern{genquery.Redundant(8, 2, 2)})
	if err != nil || len(outs) != 1 || outs[0] == nil {
		t.Fatalf("single-query batch failed: %v", err)
	}
	if reps[0].OutputSize >= reps[0].InputSize {
		t.Errorf("Redundant(8,2,2) should lose nodes: %+v", reps[0])
	}
	if got := svc.Stats().Batches; got != 3 {
		t.Errorf("batches = %d, want 3", got)
	}
}

// TestSingleMinimizeMatchesBatch checks that Minimize and MinimizeBatch
// agree, output and report, for every algorithm.
func TestSingleMinimizeMatchesBatch(t *testing.T) {
	qs := batchWorkload(12)
	cs := ics.NewSet(ics.Child("t0", "t1"), ics.Desc("t1", "t2"))
	ctx := context.Background()
	for _, algo := range batchAlgos {
		batch := New(Options{Constraints: cs, Algo: algo, CacheSize: -1})
		outs, reps, err := batch.MinimizeBatch(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		single := New(Options{Constraints: cs, Algo: algo, CacheSize: -1})
		for i, q := range qs {
			out, rep, err := single.Minimize(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !pattern.Isomorphic(out, outs[i]) {
				t.Errorf("%s: query %d: single %s != batch %s", algo, i, out, outs[i])
			}
			if rep != reps[i] {
				t.Errorf("%s: query %d: reports diverge: single %+v batch %+v", algo, i, rep, reps[i])
			}
			if rep.CDMRemoved+rep.ACIMRemoved != rep.InputSize-rep.OutputSize {
				t.Errorf("%s: query %d: CDM %d + ACIM %d removed, size delta %d", algo, i,
					rep.CDMRemoved, rep.ACIMRemoved, rep.InputSize-rep.OutputSize)
			}
		}
	}
}
