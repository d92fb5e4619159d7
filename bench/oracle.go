package main

import (
	"fmt"
	"sync"

	"repro/bench/workload"
)

// model is the oracle: for every key, the last acknowledged write,
// ordered by commit sequence number. Values name their own (key,
// version) (workload.FillValue), so the model keeps only the version
// each key must read back at; a stale, lost, torn or foreign value
// fails either CheckValue or the version comparison.
type model struct {
	mu sync.Mutex
	// Pre-populated keys [0, len(ver)): never deleted.
	ver  []uint32
	seq  []uint64 // commit sequence of the write that set ver
	size []uint32
	// unsure marks keys whose last write failed without a definite
	// outcome; they are excluded from checks (and the failure counted).
	unsure []bool
	// chain counts the acknowledged read-modify-writes per key, when
	// those are the key's only writers: each wrote the version it read
	// plus one, so the final version must equal the count. A pair of
	// commits that both read version n and both wrote n+1 — a lost
	// update the version alone cannot show — leaves it one short.
	chain []uint32
	// fresh[w] is driver w's own key range: indices
	// [base+deleted, base+inserted) exist at version 0, except those in
	// freshUnsure, whose insert or delete failed.
	fresh       []freshRange
	freshUnsure map[uint32]bool
	// lastSeq is the highest sequence acknowledged so far; per driver,
	// acknowledged sequences must grow.
	lastSeq    []uint64
	violations []string
}

type freshRange struct {
	base, inserted, deleted uint32
}

func newModel(keys, drivers int) *model {
	return &model{
		ver: make([]uint32, keys), seq: make([]uint64, keys), size: make([]uint32, keys),
		unsure: make([]bool, keys), fresh: make([]freshRange, drivers), lastSeq: make([]uint64, drivers),
		freshUnsure: make(map[uint32]bool),
	}
}

func (m *model) violate(format string, args ...any) {
	if len(m.violations) < 20 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

// version is the version key must currently read back at.
func (m *model) version(key uint32) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ver[key]
}

// ackSeq checks that driver w's acknowledged sequence numbers grow.
// Caller holds m.mu.
func (m *model) ackSeq(w int, seq uint64) {
	if seq <= m.lastSeq[w] {
		m.violate("driver %d: commit seq %d acknowledged after seq %d", w, seq, m.lastSeq[w])
	}
	m.lastSeq[w] = seq
}

// ackWrite records an acknowledged overwrite of a pre-populated key.
// Among acknowledgements of one key the highest commit sequence wins.
func (m *model) ackWrite(key, version uint32, size int, seq uint64) {
	if seq >= m.seq[key] {
		m.ver[key], m.seq[key], m.size[key] = version, seq, uint32(size)
	}
}

// checkRead verifies one point read of a pre-populated key made while
// the model held versions lo (before the read) and hi (after it).
// slack widens the upper end for commits another driver has made but
// not yet recorded; stale allows any version down to 0 (a replica may
// lag).
func (m *model) checkRead(key uint32, val []byte, found bool, lo, hi, slack uint32, stale bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.unsure[key] {
		return true
	}
	if !found {
		m.violate("key %d: not found, model holds version %d", key, hi)
		return false
	}
	got, ok := workload.CheckValue(val, key)
	if !ok {
		m.violate("key %d: value of %d bytes is not a value written for this key", key, len(val))
		return false
	}
	if stale {
		lo = 0
	}
	if got < lo || got > hi+slack {
		m.violate("key %d: read version %d, model allows [%d,%d]", key, got, lo, hi+slack)
		return false
	}
	return true
}

// verifyAll reads every key the model knows through get and compares:
// each pre-populated key at exactly its version and size, each live
// fresh key present at version 0, and each deleted fresh key absent.
func (m *model) verifyAll(when string, get func(key []byte) ([]byte, bool, error)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf := make([]byte, 0, workload.KeyLen)
	check := func(idx uint32, wantVer uint32, wantSize int, exists bool) {
		buf = workload.AppendKey(buf[:0], idx)
		val, found, err := get(buf)
		switch {
		case err != nil:
			m.violate("%s: key %d: %v", when, idx, err)
		case found != exists:
			m.violate("%s: key %d: found=%v, model says exists=%v", when, idx, found, exists)
		case exists:
			got, ok := workload.CheckValue(val, idx)
			if !ok || got != wantVer || (wantSize > 0 && len(val) != wantSize) {
				m.violate("%s: key %d: read version %d (valid=%v, %d bytes), last acknowledged write is version %d (%d bytes)",
					when, idx, got, ok, len(val), wantVer, wantSize)
			}
		}
	}
	for k := range m.ver {
		if m.unsure[k] {
			continue
		}
		check(uint32(k), m.ver[k], int(m.size[k]), true)
		if m.chain != nil && m.chain[k] != m.ver[k] {
			m.violate("%s: key %d: %d read-modify-writes acknowledged but the last wrote version %d: an update was lost",
				when, k, m.chain[k], m.ver[k])
		}
	}
	for _, f := range m.fresh {
		for i := uint32(0); i < f.inserted; i++ {
			if !m.freshUnsure[f.base+i] {
				check(f.base+i, 0, 0, i >= f.deleted)
			}
		}
	}
}
