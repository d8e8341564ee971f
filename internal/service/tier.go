package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
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

// A store record is one cache entry: the version byte 1, then uvarints
// tick, InputSize, OutputSize, CDMRemoved, ACIMRemoved and flags (bit 0
// Unsatisfiable), then the length-prefixed canon and output text. canon
// is the input's full canonical form, not its fingerprint: warm-start
// rebuilds the exact LRU key from it, and every lookup rejects a
// fingerprint collision by comparing canonical forms. text is the output
// in the Parse syntax, exactly as the entry serves it. Any other record
// — the JSON records of earlier versions among them — does not decode:
// the store is a cache tier, so such a record is a counted miss that is
// recomputed and overwritten.
const storedV1 byte = 1

// errStoredRecord reports a record that does not decode.
var errStoredRecord = errors.New("service: malformed store record")

// encodeStored serializes one cache entry for the persistent tier as a
// version-1 record, stamped with its write ticket. The output text is
// the one finalize rendered; an entry not yet finalized is rendered here.
func encodeStored(e *entry, tick uint64) []byte {
	text := e.text
	if text == "" {
		text = e.out.String()
	}
	var flags uint64
	if e.rep.Unsatisfiable {
		flags = 1
	}
	buf := make([]byte, 0, 1+8*binary.MaxVarintLen64+len(e.canon)+len(text))
	buf = append(buf, storedV1)
	for _, v := range []uint64{tick, uint64(e.rep.InputSize), uint64(e.rep.OutputSize),
		uint64(e.rep.CDMRemoved), uint64(e.rep.ACIMRemoved), flags, uint64(len(e.canon))} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = append(buf, e.canon...)
	buf = binary.AppendUvarint(buf, uint64(len(text)))
	return append(buf, text...)
}

// decodeStored is the inverse of encodeStored. A decoded entry is
// always a servable one: the output text is parsed, and a record whose
// pattern does not render back to that text, or whose counts are out of
// range, is rejected, so a record that slipped past the CRC is served as
// a miss, never as a wrong answer.
func decodeStored(val []byte) (*entry, error) {
	if len(val) == 0 || val[0] != storedV1 {
		return nil, errStoredRecord
	}
	rest := val[1:]
	var f [6]uint64 // tick, InputSize, OutputSize, CDMRemoved, ACIMRemoved, flags
	for i := range f {
		v, n := binary.Uvarint(rest)
		if n <= 0 || (i >= 1 && i <= 4 && v > math.MaxInt32) {
			return nil, errStoredRecord
		}
		f[i], rest = v, rest[n:]
	}
	var s [2]string // canon, text
	for i := range s {
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > uint64(len(rest)-n) {
			return nil, errStoredRecord
		}
		s[i], rest = string(rest[n:n+int(l)]), rest[n+int(l):]
	}
	canon, text := s[0], s[1]
	if len(rest) > 0 || f[5] > 1 || canon == "" {
		return nil, errStoredRecord
	}
	p, err := pattern.Parse(text)
	if err != nil {
		return nil, errStoredRecord
	}
	e := &entry{canon: canon, out: p, rep: Report{InputSize: int(f[1]), OutputSize: int(f[2]),
		CDMRemoved: int(f[3]), ACIMRemoved: int(f[4]), Unsatisfiable: f[5] == 1}}
	if e.finalize(); e.text != text {
		return nil, fmt.Errorf("service: stored output %q renders as %q", text, e.text)
	}
	return e, nil
}

// storedTick returns a record's write ticket without decoding the rest.
// A record that is not version 1 ranks as tick 0; decodeStored rejects
// it if warm-start picks it.
func storedTick(val []byte) uint64 {
	if len(val) > 0 && val[0] == storedV1 {
		tick, _ := binary.Uvarint(val[1:])
		return tick
	}
	return 0
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
	val := encodeStored(e, s.writeTick.Add(1))
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
		tick := storedTick(val)
		maxTick = max(maxTick, tick)
		if limit > 0 {
			cands = append(cands, cand{val: val, tick: tick, seq: seq})
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
		sh := shardFor(s, key)
		sh.mu.Lock()
		sh.lru.Add(key, e)
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
