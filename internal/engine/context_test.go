package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"tpq/internal/genquery"
	"tpq/internal/ics"
)

// phaseBoundaryCtx is a context whose Err flips from nil to Canceled after
// its first call. MinimizeContextTraced checks the context exactly twice on the
// Auto pipeline — on entry and at the CDM/ACIM boundary — so this context
// deterministically survives the entry check and fires between the phases,
// without any goroutine timing.
type phaseBoundaryCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *phaseBoundaryCtx) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestMinimizeContextCancelBetweenPhases pins the contract for a
// cancellation that lands after CDM has run but before ACIM starts: the
// call returns ctx.Err() and a zero Result — never a half-minimized
// query whose CDM phase ran but whose ACIM phase did not.
func TestMinimizeContextCancelBetweenPhases(t *testing.T) {
	q := genquery.Redundant(12, 3, 2)
	before := q.Canonical()
	cs := ics.NewSet(ics.Child("t0", "t1"))
	m := New(Options{Constraints: cs})

	ctx := &phaseBoundaryCtx{Context: context.Background()}
	r, err := m.MinimizeContextTraced(ctx, q, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ctx.calls.Load(); got != 2 {
		t.Errorf("ctx.Err called %d times, want 2 (entry + phase boundary)", got)
	}
	if r.Output != nil {
		t.Errorf("Output = %s, want nil — a half-minimized query leaked", r.Output)
	}
	if r != (Result{}) {
		t.Errorf("cancelled result carries work counters: %+v", r)
	}
	if q.Canonical() != before {
		t.Errorf("input mutated by cancelled minimization")
	}

	// The same context shape on a non-Auto pipeline: single-phase pipelines
	// have no boundary, so only the entry check runs and the call succeeds.
	single := New(Options{Constraints: cs, Algo: ACIM})
	ctx2 := &phaseBoundaryCtx{Context: context.Background()}
	r2, err := single.MinimizeContextTraced(ctx2, q, nil)
	if err != nil {
		t.Fatalf("ACIM pipeline: %v", err)
	}
	if r2.Output == nil {
		t.Fatalf("ACIM pipeline returned no output")
	}
}
