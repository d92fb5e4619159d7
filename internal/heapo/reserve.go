// Reservation and headroom admission for the heap manager.
//
// NVWAL's commit protocol must never see ErrNoSpace in the middle of an
// append: a partially linked block chain is expensive to unwind and,
// worse, the checkpoint — the only mechanism that frees log space —
// itself needs a block when a fresh log is created on this heap. The
// admission layer here turns "out of space" from a mid-operation
// surprise into an up-front answer:
//
//   - Reserve(blocks, maxBytes) promises that `blocks` future
//     allocations of up to maxBytes each will succeed. The promise is
//     honored by denying any other allocation that would eat the
//     promised capacity.
//   - EnsureHeadroom(pages) carves out a persistent-checkpoint
//     headroom: ordinary admission keeps a free run of at least that
//     length intact, and only NVMallocHeadroom may consume it.
//
// Because blocks are contiguous page runs, counting free *pages* is not
// enough — a fragmented heap can hold plenty of free pages and still
// have no run long enough for one block. Admission therefore counts
// free capacity per run-length class:
//
//	avail(L) = Σ over free runs r of ⌊len(r)/L⌋ + len(recycled pool[L])
//
// and maintains the invariant, for every class L with outstanding
// promises (including the headroom pseudo-class):
//
//	avail(L) ≥ Σ over classes L' of promised(L') × ⌈L'/L⌉
//
// The right-hand side over-counts deliberately: carving n pages out of
// any free run destroys at most ⌈n/L⌉ blocks of class L, so debiting a
// promise of class L' costs every other class at most ⌈L'/L⌉ blocks.
// With the invariant checked at Reserve time and at every unpromised
// allocation (with that allocation's own damage subtracted), a promised
// debit can never fail: each debit removes at most as much capacity
// from each class as it removes promises, so the invariant is
// self-preserving. Frees, recycles and quarantines only ever add free
// capacity or leave it unchanged.
package heapo

import (
	"errors"
	"fmt"
)

// ErrReservationSpent is returned when a reservation is debited more
// times than the block count it promised.
var ErrReservationSpent = errors.New("heapo: reservation already fully spent")

// Reservation is a promise of future allocations: up to `remaining`
// blocks of at most `run` pages each are guaranteed to succeed. A
// Reservation is not safe for concurrent use by multiple goroutines
// (the heap it draws from is).
type Reservation struct {
	m         *Manager
	run       int // pages per promised block (worst case)
	remaining int // promised blocks not yet debited
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Reserve promises that `blocks` future allocations of up to maxBytes
// each will succeed, or fails up front with ErrNoSpace if the heap
// cannot guarantee that without breaking earlier promises or the
// checkpoint headroom. The caller must Release the reservation when
// done; debiting it past `blocks` fails with ErrReservationSpent.
func (m *Manager) Reserve(blocks, maxBytes int) (*Reservation, error) {
	r := new(Reservation)
	if err := m.ReserveInto(r, blocks, maxBytes); err != nil {
		return nil, err
	}
	return r, nil
}

// ReserveInto is Reserve writing the promise into a caller-owned
// Reservation, so a commit loop can reuse one Reservation value across
// transactions instead of allocating a fresh one per Reserve. r must be
// fresh or fully released/spent; on failure r is left released.
func (m *Manager) ReserveInto(r *Reservation, blocks, maxBytes int) error {
	if blocks <= 0 || maxBytes <= 0 {
		return fmt.Errorf("heapo: invalid reservation (%d blocks of %d bytes)", blocks, maxBytes)
	}
	if r.remaining > 0 {
		return fmt.Errorf("heapo: reservation still holds %d promised blocks", r.remaining)
	}
	run := ceilDiv(maxBytes, PageSize)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reservedByRun == nil {
		m.reservedByRun = make(map[int]int)
	}
	// Add the promise hypothetically, then verify the invariant holds.
	m.reservedByRun[run] += blocks
	if !m.admitLocked(0, 0, false) {
		m.unreserveLocked(run, blocks)
		m.cReserveDenied.Add(1)
		*r = Reservation{m: m}
		return ErrNoSpace
	}
	m.cReservations.Add(1)
	*r = Reservation{m: m, run: run, remaining: blocks}
	return nil
}

// PreMalloc debits one promised block in the pending state (the
// NVPreMalloc contract), preferring the recycled pool. bytes may be
// smaller than the reserved worst case, never larger.
func (r *Reservation) PreMalloc(bytes int) (Block, error) {
	return r.alloc(bytes, StatePending)
}

// Malloc debits one promised block directly in the in-use state (the
// NVMalloc contract).
func (r *Reservation) Malloc(bytes int) (Block, error) {
	return r.alloc(bytes, StateInUse)
}

func (r *Reservation) alloc(bytes, headState int) (Block, error) {
	if bytes <= 0 {
		return Block{}, fmt.Errorf("heapo: invalid allocation size %d", bytes)
	}
	need := ceilDiv(bytes, PageSize)
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.remaining <= 0 {
		return Block{}, ErrReservationSpent
	}
	if need > r.run {
		return Block{}, fmt.Errorf("heapo: reservation promises %d-page blocks, need %d", r.run, need)
	}
	if headState == StatePending {
		if pool := m.recycled[need]; len(pool) > 0 {
			b := pool[len(pool)-1]
			m.recycled[need] = pool[:len(pool)-1]
			m.recycledPages -= need
			m.cRecycleHits.Add(1)
			r.debitLocked()
			return b, nil
		}
	}
	b, err := m.allocate(bytes, headState)
	if err != nil {
		// The admission invariant makes this unreachable; surface it
		// loudly rather than masking an accounting bug.
		return Block{}, fmt.Errorf("heapo: reserved allocation failed: %w", err)
	}
	r.debitLocked()
	return b, nil
}

// debitLocked consumes one promise. Called with m.mu held.
func (r *Reservation) debitLocked() {
	r.remaining--
	r.m.unreserveLocked(r.run, 1)
}

// Remaining reports the promised blocks not yet debited.
func (r *Reservation) Remaining() int {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	return r.remaining
}

// Release returns any undebited promises to the heap. Safe to call
// more than once; a fully debited reservation releases nothing.
func (r *Reservation) Release() {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	if r.remaining > 0 {
		r.m.unreserveLocked(r.run, r.remaining)
		r.remaining = 0
	}
}

// unreserveLocked removes n promised blocks of the given class.
func (m *Manager) unreserveLocked(run, n int) {
	if m.reservedByRun[run] -= n; m.reservedByRun[run] <= 0 {
		delete(m.reservedByRun, run)
	}
}

// ReservedPages reports the pages currently promised to outstanding
// reservations (worst case: blocks × run length).
func (m *Manager) ReservedPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for run, blocks := range m.reservedByRun {
		n += run * blocks
	}
	return n
}

// EnsureHeadroom raises the checkpoint headroom to at least `pages`
// pages: ordinary admission keeps a free run of that length intact so
// NVMallocHeadroom can always serve the allocations checkpointing
// depends on. The headroom never shrinks — several logs sharing one
// heap each raise it to their own requirement.
func (m *Manager) EnsureHeadroom(pages int) {
	m.mu.Lock()
	if pages > m.headroom {
		m.headroom = pages
	}
	m.mu.Unlock()
}

// Headroom reports the current checkpoint headroom in pages.
func (m *Manager) Headroom() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.headroom
}

// NVMallocHeadroom allocates an in-use block that may consume the
// checkpoint headroom. It still refuses to eat space promised to
// outstanding reservations, but as long as the request fits the
// headroom that can never happen: the ordinary admission rule kept a
// run of headroom length out of every promise.
func (m *Manager) NVMallocHeadroom(bytes int) (Block, error) {
	if bytes <= 0 {
		return Block{}, fmt.Errorf("heapo: invalid allocation size %d", bytes)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.admitLocked(ceilDiv(bytes, PageSize), 0, true) {
		return Block{}, ErrNoSpace
	}
	return m.allocate(bytes, StateInUse)
}

// admitLocked decides whether an allocation (or a new promise) keeps
// every outstanding promise satisfiable. carvePages is the run length
// about to be carved from free space (0 for none); poolClass is the
// class of a recycled-pool block about to be consumed (0 for none);
// headroomPrivileged drops the headroom pseudo-class from the check
// for allocations allowed to consume it. Called with m.mu held.
func (m *Manager) admitLocked(carvePages, poolClass int, headroomPrivileged bool) bool {
	if len(m.reservedByRun) == 0 && (m.headroom == 0 || headroomPrivileged) {
		return true
	}
	if m.dev.Domain().Failed() {
		// Power is off: the ghost's stores are dropped and its loads see
		// the persisted image, so the metadata no longer follows
		// writeMeta. Take the summary from what the loads return.
		m.rebuildSummary()
	}
	check := func(class int) bool {
		avail := len(m.recycled[class]) + m.sum.blocks(class)
		if carvePages > 0 {
			avail -= ceilDiv(carvePages, class)
		}
		if poolClass == class {
			avail--
		}
		need := 0
		for run, blocks := range m.reservedByRun {
			need += blocks * ceilDiv(run, class)
		}
		if !headroomPrivileged && m.headroom > 0 {
			need += ceilDiv(m.headroom, class)
		}
		return avail >= need
	}
	for class := range m.reservedByRun {
		if !check(class) {
			return false
		}
	}
	if !headroomPrivileged && m.headroom > 0 && !check(m.headroom) {
		return false
	}
	return true
}

// SizeForPages returns the smallest device size (in bytes) for which a
// formatted heap holds exactly `pages` heap pages — how tests and the
// fuzzer build deliberately tiny heaps.
func SizeForPages(pages int) int {
	base := uint64(16 + rootSlots*rootSlotLen + pages*8)
	base = (base + PageSize - 1) &^ uint64(PageSize-1)
	return int(base) + pages*PageSize
}
