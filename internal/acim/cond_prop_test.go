package acim

import (
	"math/rand"
	"testing"

	"tpq/internal/cdm"
	"tpq/internal/data"
	"tpq/internal/oracle"
	"tpq/internal/pattern"
)

// Property test for the Section 7 extension: minimization of queries with
// value conditions stays semantically exact. Random conditioned queries,
// random constraint sets, random attribute-carrying databases repaired to
// satisfy the constraints — the minimized query must return the same
// answers.
func TestConditionedMinimizationSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	types := []pattern.Type{"t0", "t1", "t2", "t3", "t4", "t5"}
	attrs := []string{"p", "q"}
	shrunk := 0
	for i := 0; i < 80; i++ {
		q, cs := randomSetup(rng, 1+rng.Intn(7), rng.Intn(4))
		// Sprinkle conditions.
		q.Walk(func(n *pattern.Node) {
			if rng.Intn(3) != 0 {
				return
			}
			op := []pattern.Op{pattern.OpLt, pattern.OpLe, pattern.OpGt, pattern.OpGe, pattern.OpNe}[rng.Intn(5)]
			n.AddCond(pattern.Condition{
				Attr:  attrs[rng.Intn(len(attrs))],
				Op:    op,
				Value: float64(rng.Intn(4)),
			})
		})
		closed := cs.Closure()
		minACIM := Minimize(q, closed)
		minBoth := Minimize(cdm.Minimize(q, closed), closed)
		if minACIM.Size() < q.Size() {
			shrunk++
		}
		if !pattern.Isomorphic(minACIM, minBoth) {
			t.Fatalf("iter %d: CDM pre-filter changed the minimum for conditioned query\nq = %s\ncs = %s\nACIM = %s\nCDM;ACIM = %s",
				i, q, cs, minACIM, minBoth)
		}
		for trial := 0; trial < 5; trial++ {
			var roots []*data.Node
			var all []*data.Node
			for len(all) < 1+rng.Intn(12) {
				var n *data.Node
				if len(all) == 0 || rng.Intn(6) == 0 {
					n = data.NewNode(types[rng.Intn(len(types))])
					roots = append(roots, n)
				} else {
					n = all[rng.Intn(len(all))].Child(types[rng.Intn(len(types))])
				}
				// Random attributes on most nodes.
				for _, a := range attrs {
					if rng.Intn(4) != 0 {
						n.SetAttr(a, float64(rng.Intn(5)))
					}
				}
				all = append(all, n)
			}
			f := data.NewForest(roots...)
			if err := data.Repair(f, closed); err != nil {
				t.Fatal(err)
			}
			want := oracle.BindingsMap(q, f)[q.OutputNode()]
			got := oracle.BindingsMap(minACIM, f)[minACIM.OutputNode()]
			if len(want) != len(got) {
				t.Fatalf("iter %d: conditioned minimization broke equivalence\nq   = %s\nmin = %s\ncs  = %s\ndata:\n%s",
					i, q, minACIM, cs, f)
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("iter %d: answer %d differs", i, j)
				}
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("no conditioned query shrank; distribution degenerate")
	}
}
