package service

import (
	"context"

	"tpq/internal/engine"
	"tpq/internal/pattern"
)

// Disjunctive serving. A disjunctive request is minimized per disjunct —
// the disjuncts fanned out over the service's worker pool, each routed
// through every tier the conjunctive path has (LRU, singleflight,
// persistent store) — then absorption-pruned and reassembled. This is the
// only union assembly: tpq.MinimizeDisjunction, the HTTP handlers and the
// command-line tools all reach it. The assembled union is
// cached in its own small LRU keyed on the disjunction's canonical form
// (disjunct-sorted, so every spelling of the same union shares one key)
// plus the constraint fingerprint: a repeat disjunctive request costs one
// lookup instead of k cache probes plus O(k²) containment tests. There is
// no or-level singleflight — concurrent identical disjunctive requests
// share the per-disjunct pipeline runs through the conjunctive flight
// map, and duplicating the cheap assembly is not worth a second map.

// DefaultOrCacheSize is the or-cache capacity used when the conjunctive
// cache is enabled. Disjunctive traffic is a small fraction of a TPQ
// workload; the per-disjunct results live in the main cache either way.
const DefaultOrCacheSize = 256

// OrReport describes how one disjunctive request was served.
type OrReport struct {
	// InputSize and OutputSize are node counts summed across disjuncts.
	InputSize, OutputSize int
	// Disjuncts is the input disjunct count, Kept the output one.
	Disjuncts, Kept int
	// Absorbed counts disjuncts dropped because another contains them
	// (post-minimization duplicates included); Unsat those dropped as
	// unsatisfiable under the constraints.
	Absorbed, Unsat int
	// CDMRemoved and ACIMRemoved sum the per-disjunct phase removals.
	CDMRemoved, ACIMRemoved int
	// Unsatisfiable is set when every disjunct is unsatisfiable — the
	// union can never produce an answer.
	Unsatisfiable bool
	// CacheHit is set when the assembled union came from the or-cache.
	CacheHit bool
}

// orEntry is one cached disjunctive result: the assembled union (shared
// read-only — its disjuncts alias conjunctive cache entries), its report
// with per-request flags unset, and the rendered text. As for entry, the
// text is rendered once when the entry is shared through a cache, and
// left empty on a request-local entry.
type orEntry struct {
	out  *pattern.Disjunction
	rep  OrReport
	text string
}

// render returns the output text: the pre-rendered one when the entry
// was cached, a fresh rendering otherwise.
func (e *orEntry) render() string {
	if e.text != "" {
		return e.text
	}
	return e.out.String()
}

// MinimizeDisjunction returns the minimal union equivalent to d under the
// service's constraints: every disjunct minimized through the full cache
// hierarchy, unsatisfiable disjuncts dropped, the rest absorption-pruned.
// The returned Disjunction is always a private copy. A singleton behaves
// exactly like Minimize on its one disjunct (same counters, same cache).
// The disjuncts of a union are minimized concurrently over the service's
// worker pool.
func (s *Service) MinimizeDisjunction(ctx context.Context, d *pattern.Disjunction) (*pattern.Disjunction, OrReport, error) {
	e, rep, err := s.minimizeDisjunctionEntry(ctx, d)
	if err != nil {
		return nil, OrReport{}, err
	}
	if len(s.shards) == 0 {
		// Caching disabled: the entry and the disjuncts it holds are
		// request-local, so the copy would be waste (as in Minimize).
		return e.out, rep, nil
	}
	return e.out.Clone(), rep, nil
}

// minimizeDisjunctionEntry is the package-internal form of
// MinimizeDisjunction: it returns the shared or-cache entry, saving the
// clone for the HTTP layer. The caller must not mutate e.out.
func (s *Service) minimizeDisjunctionEntry(ctx context.Context, d *pattern.Disjunction) (*orEntry, OrReport, error) {
	if d == nil || len(d.Disjuncts) == 0 {
		return nil, OrReport{}, errEmptyPattern
	}
	// Singleton: the request is conjunctive — serve it through the main
	// path so it shares that cache and its counters, and wrap the entry.
	if p := d.Singleton(); p != nil {
		e, rep, err := s.minimizeEntry(ctx, p)
		if err != nil {
			return nil, OrReport{}, err
		}
		orep := OrReport{
			InputSize:     rep.InputSize,
			OutputSize:    rep.OutputSize,
			Disjuncts:     1,
			Kept:          1,
			CDMRemoved:    rep.CDMRemoved,
			ACIMRemoved:   rep.ACIMRemoved,
			Unsatisfiable: rep.Unsatisfiable,
			CacheHit:      rep.CacheHit,
		}
		return &orEntry{
			out:  &pattern.Disjunction{Disjuncts: []*pattern.Pattern{e.out}},
			rep:  orep,
			text: e.text,
		}, orep, nil
	}

	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.stats.errors.Add(1)
		return nil, OrReport{}, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	s.stats.orRequests.Add(1)
	s.stats.orDisjuncts.Add(int64(len(d.Disjuncts)))

	var key string
	if s.orcache != nil {
		key = d.Canonical() + "\x00" + s.fp
		s.orMu.Lock()
		e, ok := s.orcache.Get(key)
		s.orMu.Unlock()
		if ok {
			s.stats.orCacheHits.Add(1)
			rep := e.rep
			rep.CacheHit = true
			return e, rep, nil
		}
	}

	es, reps, err := s.minimizeEntries(ctx, d.Disjuncts)
	if err != nil {
		return nil, OrReport{}, err
	}
	rep := OrReport{Disjuncts: len(d.Disjuncts), InputSize: d.Size()}
	// Drop unsatisfiable disjuncts; if every disjunct is unsatisfiable,
	// keep the first minimized one so the output stays a valid query.
	sat := make([]*pattern.Pattern, 0, len(es))
	for i, e := range es {
		rep.CDMRemoved += reps[i].CDMRemoved
		rep.ACIMRemoved += reps[i].ACIMRemoved
		if reps[i].Unsatisfiable {
			rep.Unsat++
			continue
		}
		sat = append(sat, e.out)
	}
	if len(sat) == 0 {
		rep.Unsatisfiable = true
		rep.Unsat--
		sat = append(sat, es[0].out)
	}

	kept, absorbed := engine.AbsorbDisjuncts(sat, s.eng)
	rep.Absorbed = absorbed
	out := pattern.NewDisjunction(kept...)
	rep.Absorbed += len(kept) - len(out.Disjuncts)
	rep.Kept = len(out.Disjuncts)
	rep.OutputSize = out.Size()
	s.stats.orAbsorbed.Add(int64(rep.Absorbed))
	s.stats.orUnsat.Add(int64(rep.Unsat))

	e := &orEntry{out: out, rep: rep}
	if s.orcache != nil {
		e.text = out.String()
		s.orMu.Lock()
		s.orcache.Add(key, e)
		s.orMu.Unlock()
	}
	return e, rep, nil
}
