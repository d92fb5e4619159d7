// Package heapo reimplements the kernel-level NVRAM heap manager NVWAL
// builds on (Heapo, Hwang et al., referenced as [16] in the paper). It
// provides:
//
//   - a persistent namespace: a root table mapping names to NVRAM
//     addresses, so SQLite can find its write-ahead log again after a
//     reboot (§3.3 requirement (ii));
//   - page-granularity block allocation with crash-consistent metadata:
//     every block carries the tri-state flag the paper's user-level heap
//     protocol relies on — free, pending, in-use (§3.3);
//   - the syscall surface NVWAL calls: NVMalloc, NVPreMalloc,
//     NVMallocSetUsedFlag, NVFree;
//   - recovery: after a crash, ReclaimPending frees every block stuck in
//     the pending state, preventing the §4.3 memory leak.
//
// Every public call charges one kernel-mode switch plus the real cost of
// persisting the metadata update (flush + barrier + persist barrier),
// which is exactly why the paper's user-level heap pays off: it trades
// one Heapo call per WAL frame for one per 8 KB block.
package heapo

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/nvram"
)

// PageSize is the allocation granule (matching the 4 KB kernel pages
// Heapo hands out).
const PageSize = 4096

// Block states stored in the persistent per-page metadata.
const (
	StateFree    = 0 // available
	StatePending = 1 // allocated but not yet referenced by the application
	StateInUse   = 2 // allocated and referenced
	stateCont    = 3 // continuation page of a multi-page block
	// StateQuarantined marks a block whose media went bad: it is never
	// allocated again, never reclaimed by recovery, and survives crash/
	// reboot cycles — the persistent bad-block list.
	StateQuarantined = 4
)

// Persistent layout:
//
//	[0,  8)   magic
//	[8, 16)   page count P
//	[16, 16+P*8)            per-page metadata: state | runPages<<8
//	[... rootTable ...]     rootSlots entries of (32-byte name, 8-byte addr)
//	[heapBase, end)         the heap pages themselves, PageSize-aligned
const (
	magic       = 0x4845_4150_4F31_0001 // "HEAPO1"+version
	rootSlots   = 64
	nameLen     = 32
	rootSlotLen = nameLen + 8
)

// Errors returned by the manager.
var (
	ErrNoSpace     = errors.New("heapo: out of NVRAM pages")
	ErrBadBlock    = errors.New("heapo: block does not reference an allocation head")
	ErrBadState    = errors.New("heapo: block is not in the expected state")
	ErrNotFormated = errors.New("heapo: device holds no heapo heap (bad magic)")
	ErrNoRootSlot  = errors.New("heapo: root table full")
	ErrNameTooLong = fmt.Errorf("heapo: name longer than %d bytes", nameLen-1)
)

// Block identifies one allocation: a contiguous run of NVRAM pages.
type Block struct {
	Addr  uint64 // device address of the first byte
	Pages int    // run length in pages
}

// Size returns the block's capacity in bytes.
func (b Block) Size() int { return b.Pages * PageSize }

// DefaultRecycleLimit caps the recycled free-block pool, in pages. 512
// pages (2 MB) holds the block set of a full default-limit checkpoint
// round, which is what steady-state recycling needs.
const DefaultRecycleLimit = 512

// Manager is the kernel heap manager instance attached to one device.
// All public methods are safe for concurrent use: a background
// checkpointer recycles blocks while the log writer allocates.
type Manager struct {
	dev       *nvram.Device
	pageCount int
	metaBase  uint64 // start of per-page metadata
	rootBase  uint64 // start of root table
	heapBase  uint64 // start of heap pages

	// mu serializes metadata scans and updates (and the volatile pool).
	mu sync.Mutex
	// freeHint is a volatile scan cursor; rebuilt state lives in NVRAM.
	freeHint int
	// freePages caches the number of StateFree pages so watermark checks
	// are O(1); the persistent metadata remains the source of truth and
	// Attach rebuilds the cache with one scan.
	freePages int
	// reservedByRun counts outstanding promised blocks by run length
	// (pages per block); see reserve.go for the admission invariant that
	// keeps every promise satisfiable.
	reservedByRun map[int]int
	// headroom is the page count of the checkpoint carve-out: ordinary
	// admission keeps a free run of at least this length available, and
	// only NVMallocHeadroom may consume it.
	headroom int
	// recycled pools pending blocks by run length so NVPreMalloc can
	// reuse a checkpoint-freed block without any kernel call: the block
	// is already in the pending state, which is exactly what
	// NVPreMalloc's contract hands out, and a crash loses nothing —
	// recovery's ReclaimPending frees pending blocks anyway.
	recycled      map[int][]Block
	recycledPages int
	recycleLimit  int
	// sum is the volatile free-run summary admission answers from; see
	// summary.go for what keeps it equal to the persistent metadata.
	sum freeSummary

	// The device's counter cells this manager adds to, bound in layout.
	cAlloc, cFree, cRecycled, cRecycleHits, cQuarantined *metrics.Cell
	cReservations, cReserveDenied, tHeapAlloc            *metrics.Cell
}

// Format initializes a heapo heap on the device, erasing any previous
// content, and returns a manager attached to it.
func Format(dev *nvram.Device) (*Manager, error) {
	m := layout(dev)
	if m.pageCount < 1 {
		return nil, ErrNoSpace
	}
	dev.PutUint64(0, magic)
	dev.PutUint64(8, uint64(m.pageCount))
	zero := make([]byte, PageSize)
	// Clear per-page metadata and the root table.
	for off := m.metaBase; off < m.heapBase; off += PageSize {
		n := m.heapBase - off
		if n > PageSize {
			n = PageSize
		}
		dev.Write(off, zero[:n])
	}
	m.persistRange(0, m.heapBase)
	m.freePages = m.rebuildSummary()
	return m, nil
}

// Attach connects to a previously formatted heap, e.g. after a reboot.
func Attach(dev *nvram.Device) (*Manager, error) {
	m := layout(dev)
	if dev.Uint64(0) != magic {
		return nil, ErrNotFormated
	}
	if got := int(dev.Uint64(8)); got != m.pageCount {
		return nil, fmt.Errorf("heapo: device size changed (heap has %d pages, device fits %d)", got, m.pageCount)
	}
	m.freePages = m.rebuildSummary()
	return m, nil
}

// layout computes the address-space split for the device size.
func layout(dev *nvram.Device) *Manager {
	c := dev.Metrics()
	m := &Manager{
		dev: dev, metaBase: 16, recycleLimit: DefaultRecycleLimit,
		cAlloc:         c.Cell(metrics.HeapAlloc),
		cFree:          c.Cell(metrics.HeapFree),
		cRecycled:      c.Cell(metrics.HeapRecycled),
		cRecycleHits:   c.Cell(metrics.HeapRecycleHits),
		cQuarantined:   c.Cell(metrics.BlocksQuarantined),
		cReservations:  c.Cell(metrics.HeapReservations),
		cReserveDenied: c.Cell(metrics.HeapReserveDenied),
		tHeapAlloc:     c.Cell(metrics.TimeHeapAlloc),
	}
	size := uint64(dev.Size())
	// Solve for the page count: 16 + 8P + rootTable + P*PageSize <= size.
	fixed := m.metaBase + rootSlots*rootSlotLen
	p := (size - fixed) / (PageSize + 8)
	m.rootBase = m.metaBase + p*8
	heapBase := m.rootBase + rootSlots*rootSlotLen
	// Page-align the heap base.
	heapBase = (heapBase + PageSize - 1) &^ (PageSize - 1)
	for heapBase+p*PageSize > size && p > 0 {
		p--
	}
	m.pageCount = int(p)
	m.heapBase = heapBase
	return m
}

// Device returns the underlying NVRAM device.
func (m *Manager) Device() *nvram.Device { return m.dev }

// persistRange flushes and persists a metadata range, the crash-
// consistency discipline every state transition follows.
func (m *Manager) persistRange(start, end uint64) {
	m.dev.Sync([]memsim.AddrRange{{Start: start, End: end}}, memsim.SyncFence|memsim.SyncPersist)
}

func (m *Manager) metaAddr(page int) uint64 { return m.metaBase + uint64(page)*8 }

func (m *Manager) pageAddr(page int) uint64 { return m.heapBase + uint64(page)*PageSize }

func (m *Manager) pageOf(addr uint64) (int, error) {
	if addr < m.heapBase || addr >= m.heapBase+uint64(m.pageCount)*PageSize {
		return 0, ErrBadBlock
	}
	off := addr - m.heapBase
	if off%PageSize != 0 {
		return 0, ErrBadBlock
	}
	return int(off / PageSize), nil
}

func (m *Manager) readMeta(page int) (state int, run int) {
	v := m.dev.Uint64(m.metaAddr(page))
	return int(v & 0xff), int(v >> 8)
}

// writeMeta is the only place a page's metadata word changes, which is
// what lets it keep the volatile summary in step with NVRAM.
func (m *Manager) writeMeta(page, state, run int) {
	m.dev.PutUint64(m.metaAddr(page), uint64(state)|uint64(run)<<8)
	m.sum.set(page, state == StateFree)
}

// KernelAllocCost is the simulated cost of Heapo's kernel-side
// allocation work beyond the mode switch: finding NVRAM pages, mapping
// them into the process address space, and persisting the heap
// metadata consistently. This is the §3.3 overhead ("allocating and
// deallocating non-volatile memory blocks using a kernel-level NVRAM
// heap manager has high overhead due to ensuring consistency in the
// presence of failures") that the user-level heap amortizes; it is
// calibrated so UH+LS gains ~6% over LS in Figure 7.
const KernelAllocCost = 20 * time.Microsecond

// allocate finds a free run of n pages, marks it with the given head
// state, persists the metadata, and returns the block. One kernel-mode
// switch plus the kernel allocation cost is charged. Called with m.mu
// held.
func (m *Manager) allocate(bytes int, headState int) (Block, error) {
	if bytes <= 0 {
		return Block{}, fmt.Errorf("heapo: invalid allocation size %d", bytes)
	}
	m.dev.Syscall()
	m.dev.Domain().Clock().Advance(KernelAllocCost)
	m.tHeapAlloc.Add(int64(KernelAllocCost))
	need := (bytes + PageSize - 1) / PageSize
	start, ok := m.findRun(need)
	if !ok {
		return Block{}, ErrNoSpace
	}
	for i := start + 1; i < start+need; i++ {
		m.writeMeta(i, stateCont, 0)
	}
	m.writeMeta(start, headState, need)
	m.persistRange(m.metaAddr(start), m.metaAddr(start+need))
	m.freeHint = start + need
	m.freePages -= need
	m.cAlloc.Add(1)
	return Block{Addr: m.pageAddr(start), Pages: need}, nil
}

// findRun locates a free run of need pages using the volatile hint, then
// wrapping around.
func (m *Manager) findRun(need int) (int, bool) {
	scan := func(from, to int) (int, bool) {
		runStart, runLen := from, 0
		for i := from; i < to; i++ {
			st, _ := m.readMeta(i)
			if st == StateFree {
				if runLen == 0 {
					runStart = i
				}
				runLen++
				if runLen == need {
					return runStart, true
				}
			} else {
				runLen = 0
			}
		}
		return 0, false
	}
	if m.freeHint > m.pageCount {
		m.freeHint = 0
	}
	if start, ok := scan(m.freeHint, m.pageCount); ok {
		return start, true
	}
	return scan(0, m.pageCount)
}

// NVMalloc allocates a block and marks it in-use immediately — the
// legacy path the non-user-heap NVWAL variants use once per WAL frame.
// It is denied with ErrNoSpace when the allocation would eat space
// promised to an outstanding reservation or to the checkpoint headroom.
func (m *Manager) NVMalloc(bytes int) (Block, error) {
	if bytes <= 0 {
		return Block{}, fmt.Errorf("heapo: invalid allocation size %d", bytes)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.admitLocked(ceilDiv(bytes, PageSize), 0, false) {
		return Block{}, ErrNoSpace
	}
	return m.allocate(bytes, StateInUse)
}

// NVPreMalloc allocates a block in the pending state: if the system
// crashes before the application persists a reference to it and calls
// NVMallocSetUsedFlag, recovery reclaims the block (§3.3). A block of
// the exact size parked in the recycled pool is reused instead — it is
// already pending, so the reuse costs no kernel call and no metadata
// persist.
func (m *Manager) NVPreMalloc(bytes int) (Block, error) {
	if bytes <= 0 {
		return Block{}, fmt.Errorf("heapo: invalid allocation size %d", bytes)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	need := (bytes + PageSize - 1) / PageSize
	if pool := m.recycled[need]; len(pool) > 0 {
		// A pool block counts toward reserved capacity of its class, so
		// even the kernel-free reuse path needs admission.
		if !m.admitLocked(0, need, false) {
			return Block{}, ErrNoSpace
		}
		b := pool[len(pool)-1]
		m.recycled[need] = pool[:len(pool)-1]
		m.recycledPages -= need
		m.cRecycleHits.Add(1)
		return b, nil
	}
	if !m.admitLocked(need, 0, false) {
		return Block{}, ErrNoSpace
	}
	return m.allocate(bytes, StatePending)
}

// Recycle retires an in-use block the way a checkpoint frees log
// blocks: the block returns to the pending state (crash-safe — recovery
// reclaims pending blocks) and is parked in the volatile pool for the
// next NVPreMalloc of the same size, skipping the kernel allocation
// path entirely. When the pool is full the block is freed normally.
func (m *Manager) Recycle(b Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	page, err := m.pageOf(b.Addr)
	if err != nil {
		return err
	}
	st, run := m.readMeta(page)
	if st != StateInUse {
		return fmt.Errorf("%w: page %d is %s, want in-use", ErrBadState, page, stateName(st))
	}
	if m.recycledPages+run > m.recycleLimit {
		return m.freeLocked(page, run)
	}
	m.dev.Syscall()
	m.writeMeta(page, StatePending, run)
	m.persistRange(m.metaAddr(page), m.metaAddr(page+1))
	if m.recycled == nil {
		m.recycled = make(map[int][]Block)
	}
	m.recycled[run] = append(m.recycled[run], Block{Addr: b.Addr, Pages: run})
	m.recycledPages += run
	m.cRecycled.Add(1)
	return nil
}

// SetRecycleLimit bounds the recycled pool to n pages (0 disables
// recycling; Recycle then behaves like NVFree).
func (m *Manager) SetRecycleLimit(n int) {
	m.mu.Lock()
	m.recycleLimit = n
	m.mu.Unlock()
}

// RecycledPages reports the pages parked in the recycled pool.
func (m *Manager) RecycledPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recycledPages
}

// NVMallocSetUsedFlag transitions a pending block to in-use, after the
// application has persistently stored the block's address.
func (m *Manager) NVMallocSetUsedFlag(b Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dev.Syscall()
	page, err := m.pageOf(b.Addr)
	if err != nil {
		return err
	}
	st, run := m.readMeta(page)
	if st != StatePending {
		return fmt.Errorf("%w: page %d is %s, want pending", ErrBadState, page, stateName(st))
	}
	m.writeMeta(page, StateInUse, run)
	m.persistRange(m.metaAddr(page), m.metaAddr(page+1))
	return nil
}

// Quarantine retires a pending or in-use block whose media proved
// unreliable: the whole run is persistently marked quarantined, so it
// is never handed out by any allocation path again, across crashes —
// ReclaimPending skips it, findRun never matches it, and NVFree/
// Recycle refuse it.
func (m *Manager) Quarantine(b Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	page, err := m.pageOf(b.Addr)
	if err != nil {
		return err
	}
	st, run := m.readMeta(page)
	if st != StateInUse && st != StatePending {
		return fmt.Errorf("%w: page %d is %s, want in-use or pending", ErrBadState, page, stateName(st))
	}
	m.dev.Syscall()
	// Every page of the run gets the quarantined head state (run length
	// 1), so the bad-block list needs no run bookkeeping and a partially
	// damaged multi-page block can never be misparsed as an allocation.
	for i := page; i < page+run; i++ {
		m.writeMeta(i, StateQuarantined, 1)
	}
	m.persistRange(m.metaAddr(page), m.metaAddr(page+run))
	m.cQuarantined.Add(1)
	return nil
}

// QuarantinedPages reports the number of pages on the persistent
// bad-block list.
func (m *Manager) QuarantinedPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for page := 0; page < m.pageCount; page++ {
		if st, _ := m.readMeta(page); st == StateQuarantined {
			n++
		}
	}
	return n
}

// NVFree releases a block (pending or in-use) back to the free pool.
func (m *Manager) NVFree(b Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	page, err := m.pageOf(b.Addr)
	if err != nil {
		return err
	}
	st, run := m.readMeta(page)
	if st != StateInUse && st != StatePending {
		return fmt.Errorf("%w: page %d is %s, want in-use or pending", ErrBadState, page, stateName(st))
	}
	return m.freeLocked(page, run)
}

// freeLocked clears a block's metadata run. Called with m.mu held and
// the head state validated.
func (m *Manager) freeLocked(page, run int) error {
	m.dev.Syscall()
	for i := page; i < page+run; i++ {
		m.writeMeta(i, StateFree, 0)
	}
	m.persistRange(m.metaAddr(page), m.metaAddr(page+run))
	if page < m.freeHint {
		m.freeHint = page
	}
	m.freePages += run
	m.cFree.Add(1)
	return nil
}

// BlockAt reconstructs a Block from a persisted address, validating that
// it references an allocation head. Used by recovery code that walks a
// linked list of block addresses out of NVRAM.
func (m *Manager) BlockAt(addr uint64) (Block, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	page, err := m.pageOf(addr)
	if err != nil {
		return Block{}, err
	}
	st, run := m.readMeta(page)
	if st != StateInUse && st != StatePending {
		return Block{}, fmt.Errorf("%w: page %d is %s", ErrBadState, page, stateName(st))
	}
	return Block{Addr: addr, Pages: run}, nil
}

// StateOf reports the tri-state flag of the block at addr.
func (m *Manager) StateOf(addr uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	page, err := m.pageOf(addr)
	if err != nil {
		return 0, err
	}
	st, _ := m.readMeta(page)
	return st, nil
}

// ReclaimPending frees every block left in the pending state, the heap
// manager's half of crash recovery (§4.3: "the heap manager can reclaim
// any pending NVRAM blocks to prevent a memory leak"), and every orphaned
// continuation page. It returns the number of pending blocks reclaimed.
//
// A head's run is the head plus the stateCont pages after it, at most
// its recorded length and never past the heap end (runLen), so neither a
// damaged length nor a crash that persisted a head without its
// continuation words makes the pass touch a page outside the block. A
// stateCont page outside every run is an orphan: allocate's persist
// reached its line but not its head's. Pages inside an in-use or
// quarantined run are never written.
//
// The pass persists the way Algorithm 1 commits: store every StateFree
// word, flush each dirty metadata line once (neighbouring runs share
// lines, so a range is flushed only when the next freed page starts past
// its last line), then one dmb and one persist barrier — none when
// nothing was freed. One barrier per pass is crash-safe because:
//   - each pending→free transition stands alone: a crash before the
//     barrier leaves some subset freed, and the next reboot's pass frees
//     the rest (a freed head's surviving continuations become orphans);
//   - m.mu is held for the whole pass, so no allocation can see a free
//     that is not yet persisted;
//   - the barrier completes before Reboot hands out the heap;
//   - each metadata word is one 8-byte PutUint64.
func (m *Manager) ReclaimPending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Pool entries are pending blocks; reclaiming frees them, so the
	// volatile pool must not hand them out afterwards.
	m.recycled = nil
	m.recycledPages = 0
	m.dev.Syscall()
	line := uint64(m.dev.LineSize())
	var from, to uint64 // metadata bytes stored but not yet flushed
	free := func(page, n int) {
		for i := page; i < page+n; i++ {
			m.writeMeta(i, StateFree, 0)
		}
		m.freePages += n
		start := m.metaAddr(page)
		if to == 0 {
			from = start
		} else if start/line > (to-1)/line {
			m.dev.Flush(from, to)
			from = start
		}
		to = m.metaAddr(page + n)
	}
	reclaimed := 0
	for page := 0; page < m.pageCount; {
		st, run := m.readMeta(page)
		switch st {
		case StatePending:
			run = m.runLen(page, run)
			free(page, run)
			reclaimed++
		case StateInUse, StateQuarantined:
			run = m.runLen(page, run)
		case stateCont:
			free(page, 1)
			run = 1
		default:
			run = 1
		}
		page += run
	}
	if to != 0 {
		m.dev.Sync([]memsim.AddrRange{{Start: from, End: to}}, memsim.SyncPersist)
	}
	m.freeHint = 0
	return reclaimed
}

// runLen returns how many pages the head at page really spans: its
// recorded length, at least 1 and clamped to the heap end, cut at the
// first page that is not a continuation.
func (m *Manager) runLen(page, run int) int {
	run = min(max(run, 1), m.pageCount-page)
	n := 1
	for n < run {
		if st, _ := m.readMeta(page + n); st != stateCont {
			break
		}
		n++
	}
	return n
}

// FreePages reports the number of free heap pages.
func (m *Manager) FreePages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freePages
}

// TotalPages reports the heap capacity in pages.
func (m *Manager) TotalPages() int { return m.pageCount }

// HeapRange returns the device address interval [start, end) holding
// the heap's data pages — the region a fault-injection harness targets
// to damage log content while sparing allocator metadata.
func (m *Manager) HeapRange() (start, end uint64) {
	return m.heapBase, m.heapBase + uint64(m.pageCount)*PageSize
}

// SetRoot persistently binds name to an NVRAM address in the namespace
// table, so the object can be found after reboot. An existing binding is
// overwritten.
func (m *Manager) SetRoot(name string, addr uint64) error {
	if len(name) >= nameLen {
		return ErrNameTooLong
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dev.Syscall()
	slot, existing := m.findRoot(name)
	if !existing {
		if slot < 0 {
			return ErrNoRootSlot
		}
		var buf [nameLen]byte
		copy(buf[:], name)
		m.dev.Write(m.rootSlotAddr(slot), buf[:])
	}
	m.dev.PutUint64(m.rootSlotAddr(slot)+nameLen, addr)
	m.persistRange(m.rootSlotAddr(slot), m.rootSlotAddr(slot)+rootSlotLen)
	return nil
}

// GetRoot looks up a namespace binding. ok is false if the name is not
// bound.
func (m *Manager) GetRoot(name string) (addr uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, existing := m.findRoot(name)
	if !existing {
		return 0, false
	}
	return m.dev.Uint64(m.rootSlotAddr(slot) + nameLen), true
}

// DeleteRoot removes a namespace binding if present.
func (m *Manager) DeleteRoot(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, existing := m.findRoot(name)
	if !existing {
		return
	}
	m.dev.Syscall()
	zero := make([]byte, rootSlotLen)
	m.dev.Write(m.rootSlotAddr(slot), zero)
	m.persistRange(m.rootSlotAddr(slot), m.rootSlotAddr(slot)+rootSlotLen)
}

func (m *Manager) rootSlotAddr(slot int) uint64 {
	return m.rootBase + uint64(slot)*rootSlotLen
}

// findRoot returns (slot, true) if name is bound, or (firstFreeSlot,
// false) otherwise; firstFreeSlot is -1 when the table is full.
func (m *Manager) findRoot(name string) (int, bool) {
	firstFree := -1
	var buf [nameLen]byte
	for slot := 0; slot < rootSlots; slot++ {
		m.dev.Read(m.rootSlotAddr(slot), buf[:])
		stored := string(buf[:])
		if i := strings.IndexByte(stored, 0); i >= 0 {
			stored = stored[:i]
		}
		if stored == name && name != "" {
			return slot, true
		}
		if stored == "" && firstFree < 0 {
			firstFree = slot
		}
	}
	return firstFree, false
}

func stateName(st int) string {
	switch st {
	case StateFree:
		return "free"
	case StatePending:
		return "pending"
	case StateInUse:
		return "in-use"
	case stateCont:
		return "continuation"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", st)
	}
}
