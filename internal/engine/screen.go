// Parallel screening for the single-query path: test many candidate
// leaves concurrently against the shared read-only master state of the
// incremental images-table engine, then commit removals one leaf at a
// time in MEO rank order.
//
// Soundness: CIM's minimum is reached by ANY maximal elimination
// ordering (Lemmas 4.1-4.3, Theorem 4.1), so the commit order is free.
// Verdicts, however, are only guaranteed for the state they were tested
// against: a leaf screened redundant may have lost its last images to an
// earlier commit of the same round (two identical siblings are each
// redundant against the full pattern, but only one may go), so every
// commit after the first re-verifies against the current master — a
// derived-table test, so the recheck costs a row mask and a short upward
// walk, not a table rebuild. Negative verdicts need no recheck:
// enhancement 1 of Section 4 (a non-redundant leaf stays non-redundant
// across deletions) makes them permanent.
package engine

import (
	"sync"
	"time"

	"tpq/internal/cim"
	"tpq/internal/pattern"
)

// screenMinimize minimizes p in place like cim.MinimizeInPlace, but
// screens each round's candidate snapshot concurrently over the given
// number of workers: the incremental engine's Test is read-only on shared
// state.
func screenMinimize(p *pattern.Pattern, opts cim.Options, workers int) (st cim.Stats) {
	start := time.Now()
	defer func() {
		st.TotalTime = time.Since(start)
		st.Record(opts.Trace)
	}()
	if p == nil || p.Root == nil {
		return st
	}
	e := cim.NewEngine(p, opts)
	defer e.Close()
	for {
		cands := e.Candidates()
		if len(cands) == 0 {
			break
		}
		verdicts := make([]bool, len(cands))
		w := workers
		if w > len(cands) {
			w = len(cands)
		}
		if w <= 1 {
			for i, l := range cands {
				verdicts[i] = e.Test(l)
			}
		} else {
			var wg sync.WaitGroup
			jobs := make(chan int)
			for k := 0; k < w; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range jobs {
						verdicts[i] = e.Test(cands[i])
					}
				}()
			}
			for i := range cands {
				jobs <- i
			}
			close(jobs)
			wg.Wait()
		}
		// Commit in MEO rank order. The first positive verdict is still
		// current (screening mutated nothing); later ones are re-verified.
		committed := false
		for i, l := range cands {
			if !verdicts[i] {
				e.MarkNonRedundant(l)
				continue
			}
			if !committed {
				e.Remove(l)
				committed = true
			} else if !e.Commit(l) {
				e.MarkNonRedundant(l)
			}
		}
	}
	es := e.Stats()
	st.Removed, st.Tests = es.Removed, es.Tests
	st.TablesBuilt, st.TablesDerived = es.TablesBuilt, es.TablesDerived
	st.TablesTime = es.TablesTime
	return st
}
