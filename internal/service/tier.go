package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"tpq/internal/pattern"
	"tpq/internal/store"
)

// storeQueueDepth bounds the write-behind queue: 256 slots absorb a
// burst of that many misses while the drain waits on a slow append or
// flush. Persistence is best-effort: when the drain falls behind, new
// entries are dropped (counted in storeDropped) rather than
// back-pressuring the serving path — a dropped put costs a
// recomputation after a restart, nothing more.
const storeQueueDepth = 256

// storedEntry is the persisted form of one cache entry. Canon is the
// full canonical form, not just its fingerprint: it lets warm-start
// rebuild the exact LRU key and lets every decode path reject a
// fingerprint collision (or a corrupt record that slipped past the
// CRC) by comparing canonical forms directly.
type storedEntry struct {
	Canon         string          `json:"canon"`
	Output        json.RawMessage `json:"output"`
	InputSize     int             `json:"inputSize"`
	OutputSize    int             `json:"outputSize"`
	CDMRemoved    int             `json:"cdmRemoved"`
	ACIMRemoved   int             `json:"acimRemoved"`
	Unsatisfiable bool            `json:"unsatisfiable,omitempty"`
	// Tick is the service-global write ticket, assigned at enqueue time.
	// Warm-start ranks recency by tick: the store's own append sequence
	// does not survive Compact, which rewrites the snapshot in key order.
	// Zero on entries written before ticks existed.
	Tick uint64 `json:"tick,omitempty"`
}

// encodeStored serializes one cache entry for the persistent tier,
// stamped with its write ticket.
func encodeStored(e *entry, tick uint64) ([]byte, error) {
	out, err := json.Marshal(e.out)
	if err != nil {
		return nil, err
	}
	return json.Marshal(storedEntry{
		Canon:         e.canon,
		Output:        out,
		InputSize:     e.rep.InputSize,
		OutputSize:    e.rep.OutputSize,
		CDMRemoved:    e.rep.CDMRemoved,
		ACIMRemoved:   e.rep.ACIMRemoved,
		Unsatisfiable: e.rep.Unsatisfiable,
		Tick:          tick,
	})
}

// decodeStored is the inverse of encodeStored. The pattern decode
// validates structure (pattern.UnmarshalJSON rejects malformed trees),
// so a successfully decoded entry is always a servable one.
func decodeStored(val []byte) (*entry, error) {
	var se storedEntry
	if err := json.Unmarshal(val, &se); err != nil {
		return nil, err
	}
	if se.Canon == "" || len(se.Output) == 0 {
		return nil, fmt.Errorf("service: stored entry missing canon or output")
	}
	p := &pattern.Pattern{}
	if err := json.Unmarshal(se.Output, p); err != nil {
		return nil, err
	}
	e := &entry{
		canon: se.Canon,
		out:   p,
		rep: Report{
			InputSize:     se.InputSize,
			OutputSize:    se.OutputSize,
			CDMRemoved:    se.CDMRemoved,
			ACIMRemoved:   se.ACIMRemoved,
			Unsatisfiable: se.Unsatisfiable,
		},
	}
	// Decoded entries are about to be cached and served as hits; render
	// their serving state once, here.
	e.finalize()
	return e, nil
}

// storeKey builds the fixed-size persistent key for a canonical form:
// the raw constraint-set digest followed by the raw pattern digest —
// the same bytes store.EncodeKey produces from the hex fingerprints.
func (s *Service) storeKey(canon string) []byte {
	sum := sha256.Sum256([]byte(canon))
	key := make([]byte, 0, store.KeySize)
	key = append(key, s.fpRaw...)
	key = append(key, sum[:store.KeySize/2]...)
	return key
}

// storeWrite is one queued write-behind put.
type storeWrite struct {
	key, val []byte
}

// drainStore is the write-behind goroutine: it applies queued puts to
// the persistent tier until Close closes the queue.
func (s *Service) drainStore() {
	defer close(s.storeDone)
	for w := range s.storeQ {
		if err := s.store.Put(w.key, w.val); err != nil {
			s.stats.storeErrors.Add(1)
		} else {
			s.stats.storePuts.Add(1)
		}
	}
}

// storeEnqueue hands a freshly computed entry to the write-behind queue.
// Never blocks: a full queue drops the put and counts it.
func (s *Service) storeEnqueue(e *entry) {
	if s.storeQ == nil {
		return
	}
	val, err := encodeStored(e, s.writeTick.Add(1))
	if err != nil {
		s.stats.storeErrors.Add(1)
		return
	}
	select {
	case s.storeQ <- storeWrite{key: s.storeKey(e.canon), val: val}:
	default:
		s.stats.storeDropped.Add(1)
	}
}

// storeGet is the second lookup tier: the persistent store. A decoded
// entry whose canonical form does not match the request is a
// fingerprint collision — served as a miss, never as a wrong answer.
func (s *Service) storeGet(canon string) (*entry, bool) {
	if s.store == nil {
		return nil, false
	}
	val, ok := s.store.Get(s.storeKey(canon))
	if !ok {
		s.stats.storeMisses.Add(1)
		return nil, false
	}
	e, err := decodeStored(val)
	if err != nil || e.canon != canon {
		s.stats.storeErrors.Add(1)
		s.stats.storeMisses.Add(1)
		return nil, false
	}
	s.stats.storeHits.Add(1)
	return e, true
}

// loadStore makes the one startup pass over this constraint set's store
// prefix, at construction, before the drain starts or any request is
// admitted. It seeds the write ticket from the largest persisted tick,
// so ticks written after a restart rank above every existing entry, and
// warm-starts the LRU with the limit most recently written entries
// (limit < 0 means up to the cache capacity, 0 disables warm-start),
// inserted oldest first so the hottest entry ends up most recently used.
func (s *Service) loadStore(limit int) {
	if _, totalCap := s.cacheLenCap(); limit < 0 || limit > totalCap {
		limit = totalCap
	}
	type cand struct {
		val       []byte
		tick, seq uint64
	}
	var cands []cand
	maxTick := uint64(0)
	s.store.Scan(s.fpRaw, func(_, val []byte, seq uint64) bool {
		var meta struct {
			Tick uint64 `json:"tick"`
		}
		// A record that does not decode ranks as tick 0; decodeStored
		// rejects it below if it is picked.
		_ = json.Unmarshal(val, &meta)
		maxTick = max(maxTick, meta.Tick)
		if limit > 0 {
			cands = append(cands, cand{val: val, tick: meta.Tick, seq: seq})
		}
		return true
	})
	s.writeTick.Store(maxTick)
	// Rank by write ticket (assigned in request-completion order), falling
	// back to the store's sequence for records written before ticks.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tick != cands[j].tick {
			return cands[i].tick > cands[j].tick
		}
		return cands[i].seq > cands[j].seq
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	for i := len(cands) - 1; i >= 0; i-- {
		e, err := decodeStored(cands[i].val)
		if err != nil {
			s.stats.storeErrors.Add(1)
			continue
		}
		key := e.canon + "\x00" + s.fp
		sh := s.shardForString(key)
		sh.mu.Lock()
		sh.lru.add(key, e)
		sh.mu.Unlock()
		s.stats.warmStarted.Add(1)
	}
}

// decodeFingerprint turns the hex constraint fingerprint into the raw
// key prefix once, at construction.
func decodeFingerprint(fp string) []byte {
	raw, err := hex.DecodeString(fp)
	if err != nil || len(raw) != store.KeySize/2 {
		return nil
	}
	return raw
}
