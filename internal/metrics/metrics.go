// Package metrics collects the operation counts and per-phase virtual
// time that the paper's tables and figures report: cache-line flushes,
// memory barriers, persist barriers, bytes written to NVRAM, syscall
// counts, and time attributed to memcpy versus synchronization.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counters aggregates event counts and attributed virtual time for one
// simulated component or one experiment run: a fixed array of atomic
// cells, one per name in the package's name table. The zero value is
// ready to use and all methods are safe for concurrent use; a Counters
// must not be copied after first use (cells are handed out by address).
type Counters struct {
	cells [maxCells]Cell
}

// Cell is one counter or one phase time of a Counters.
type Cell struct {
	v atomic.Int64
	// set records that the cell was added to since the last Reset, which
	// is what makes Snapshot list its name.
	set atomic.Bool
}

// Add adds delta (a count, or a time.Duration's nanoseconds) to the cell.
func (c *Cell) Add(delta int64) {
	c.v.Add(delta)
	if !c.set.Load() {
		c.set.Store(true)
	}
}

// maxCells bounds the name table: the constants below plus what other
// packages register at init. It is a constant so that Counters is a
// plain array whose zero value works and whose cells never move.
const maxCells = 128

// The name table: which cell a name owns and whether it is a count or a
// time. It is filled by this package's initialisation (from the constant
// lists below) and by RegisterCounter calls in other packages'
// initialisation, and only read afterwards, so lookups take no
// lock. Names exist as strings here and in Snapshot; everything between
// is an index.
type cellName struct {
	name   string
	isTime bool
}

var (
	cellNames []cellName
	cellIndex = make(map[string]int, maxCells)
)

func register(name string, isTime bool) {
	if _, dup := cellIndex[name]; dup {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	if len(cellNames) == maxCells {
		panic(fmt.Sprintf("metrics: name table full at %q; raise maxCells", name))
	}
	cellIndex[name] = len(cellNames)
	cellNames = append(cellNames, cellName{name, isTime})
}

// RegisterCounter adds a counter name to the table. Call it only from
// another package's init function: the table is read without a lock
// once main starts.
func RegisterCounter(name string) { register(name, false) }

// index resolves a name. An unknown one is a programming error and
// panics instead of counting into nowhere.
func index(name string) int {
	i, ok := cellIndex[name]
	if !ok {
		panic(fmt.Sprintf("metrics: %q is not a registered name", name))
	}
	return i
}

// lookup is index for the by-name methods, which also know which kind
// they expect: a counter used as a time (or the reverse) panics too.
func lookup(name string, isTime bool) int {
	i := index(name)
	if cellNames[i].isTime != isTime {
		panic(fmt.Sprintf("metrics: %q used as the wrong kind (time: %v)", name, cellNames[i].isTime))
	}
	return i
}

// Standard counter keys used across the repository. Using shared names
// keeps the bench harness free of per-package string knowledge.
const (
	CacheLineFlush  = "cache_line_flush"  // dccmvac invocations
	MemoryBarrier   = "dmb"               // data memory barriers
	PersistBarrier  = "persist_barrier"   // pcommit-style barriers
	NVRAMBytes      = "nvram_bytes"       // bytes persisted to NVRAM cells
	NVRAMLineWrites = "nvram_line_writes" // cache lines written back to NVRAM
	Syscall         = "syscall"           // kernel-mode switches
	HeapAlloc       = "heap_alloc"        // kernel heap allocations (nvmalloc / nv_pre_malloc)
	HeapFree        = "heap_free"         // kernel heap frees
	BlockRead       = "block_read"        // block device page reads
	BlockWrite      = "block_write"       // block device page writes
	Fsync           = "fsync"             // block device flushes
	JournalWrite    = "journal_write"     // EXT4 journal block writes
	WALFrames       = "wal_frames"        // log frames appended
	Transactions    = "transactions"      // committed transactions
	GroupCommits    = "group_commits"     // batched group-commit flushes
	Checkpoints     = "checkpoints"       // checkpoint rounds
	// Checkpoint observability (wall-clock, not virtual: the stall a
	// real thread would experience is what the non-blocking checkpoint
	// removes, and the virtual clock does not advance while a goroutine
	// merely waits on a lock).
	CheckpointNanos  = "checkpoint_ns_total"      // wall ns spent writing back + syncing pages
	CheckpointPages  = "checkpoint_pages_written" // pages copied into the database file
	CheckpointErrors = "checkpoint_errors"        // auto-checkpoint rounds that failed after a durable commit (retried at the next due commit)
	CommitStallNanos = "commit_stall_ns"          // wall ns commits waited for the journal writer lock
	HeapRecycled     = "heap_recycled"            // blocks parked in the recycled free-block pool
	HeapRecycleHits  = "heap_recycle_hits"        // allocations served from the pool (no kernel call)
	// Media-fault hardening (fault injection, salvage, scrubbing).
	MediaBitFlips      = "media_bit_flips"      // NVRAM lines corrupted by injected bit rot
	MediaStuckLines    = "media_stuck_lines"    // NVRAM lines stuck at stale content
	MediaReadErrors    = "media_read_errors"    // uncorrectable NVRAM read errors surfaced
	BlockTornWrites    = "block_torn_writes"    // sector writes torn by power failure
	BlockShortWrites   = "block_short_writes"   // silently truncated sector programs
	BlockIOErrors      = "block_io_errors"      // EIO returned by the block device
	IORetries          = "io_retries"           // transient I/O errors absorbed by retry
	ScrubFramesChecked = "scrub_frames_checked" // log frames CRC-verified by the scrubber
	ScrubFramesBad     = "scrub_frames_bad"     // committed frames the scrubber found corrupt
	FramesSalvaged     = "frames_salvaged"      // committed frames recovery kept from a damaged log
	FramesDropped      = "frames_dropped"       // frames recovery discarded as corrupt/unreachable
	BlocksQuarantined  = "blocks_quarantined"   // NVRAM blocks retired to the heap quarantine
	// NVRAM-space exhaustion (reservations, watermark backpressure).
	HeapReservations  = "heap_reservations"   // commit-time block reservations granted
	HeapReserveDenied = "heap_reserve_denied" // reservations refused up front (admission)
	PressureStalls    = "pressure_stalls"     // writers stalled by the space watermarks / log-full retry
	PressureStallNs   = "pressure_stall_ns"   // virtual ns spent stalled under backpressure
	UrgentCheckpoints = "urgent_checkpoints"  // checkpoint rounds forced by space pressure
	CommitTimeouts    = "commit_timeouts"     // backpressure stalls abandoned at their deadline
	// Multi-writer MVCC (per-writer streams, first-committer-wins).
	MVCCCommits   = "mvcc_commits"   // MVCC session transactions committed
	MVCCConflicts = "mvcc_conflicts" // MVCC commits rejected by page-version validation
	// Simulated network (netsim fault injection).
	NetMessages  = "net_messages"  // messages handed to the wire
	NetBytes     = "net_bytes"     // payload bytes handed to the wire
	NetDropped   = "net_dropped"   // messages lost to drops, partitions or isolation
	NetReordered = "net_reordered" // messages delivered out of order
	NetCuts      = "net_cuts"      // connections cut mid-message
	// Serving layer (wire protocol front-end).
	ServerRequests = "server_requests" // requests executed (all verbs)
	ServerShed     = "server_shed"     // writes refused with retry advice (admission/backpressure)
	ServerFenced   = "server_fenced"   // requests rejected by epoch fencing
	ClientRetries  = "client_retries"  // client-side retry attempts (backoff path)
	// Replication (log-shipping primary + replicas).
	ReplBatchesShipped   = "repl_batches_shipped"   // frame ranges shipped to replicas
	ReplFramesShipped    = "repl_frames_shipped"    // frames shipped to replicas
	ReplBytesShipped     = "repl_bytes_shipped"     // payload bytes shipped to replicas
	ReplBatchesApplied   = "repl_batches_applied"   // frame ranges applied by a replica
	ReplAcks             = "repl_acks"              // replica acks processed by the primary
	ReplReseeds          = "repl_reseeds"           // full-snapshot re-seeds (gap, divergence, incarnation)
	ReplDivergences      = "repl_divergences"       // chain mismatches latching a replica degraded
	ReplAckWaits         = "repl_ack_waits"         // commits that waited on a replica ack quorum
	ReplCheckpointErrors = "repl_checkpoint_errors" // replica checkpoint rounds that failed (retried at the next boundary)
	// Gray-failure resilience (slow faults, health watchdogs, hedging).
	SlowFaultStalls    = "slow_fault_stalls"   // injected slow-fault delays (all layers)
	SlowFaultStallNs   = "slow_fault_stall_ns" // virtual ns of injected slow-fault delay
	HealthState        = "health_state"        // per-component gauge: 0 ok, 1 degraded, 2 stalled
	HealthDegraded     = "health_degraded"     // ok->degraded transitions observed
	HealthStalled      = "health_stalled"      // ->stalled transitions observed
	ReplReseedAborts   = "repl_reseed_aborts"
	HedgedReads        = "hedged_reads"               // reads duplicated to a second backend
	HedgeWins          = "hedge_wins"                 // hedged reads answered first by the hedge
	BreakerOpen        = "breaker_open_total"         // circuit-breaker open transitions
	ReplicaQuarantines = "replica_quarantines"        // replicas dropped to async for slow acks
	ReplicaReadmits    = "replica_readmits"           // quarantined replicas re-admitted to the quorum
	DeadlineAborts     = "deadline_propagated_aborts" // ops aborted by a client-propagated deadline
)

// Standard time keys.
const (
	TimeMemcpy    = "t_memcpy"     // copying log payloads into NVRAM space
	TimeFlush     = "t_flush"      // dccmvac cache-line flushes
	TimeBarrier   = "t_dmb"        // dmb barriers
	TimePersist   = "t_persist"    // persist barriers
	TimeSyscall   = "t_syscall"    // kernel mode switch overhead
	TimeBlockIO   = "t_block_io"   // block device reads/writes/fsync
	TimeCPU       = "t_cpu"        // query processing CPU cost
	TimeTotalTxn  = "t_total_txn"  // end-to-end transaction time
	TimeCheckpnt  = "t_checkpoint" // checkpointing time
	TimeHeapAlloc = "t_heap_alloc" // kernel heap manager time
)

// The table is built from these two lists; a constant missing from them
// panics at its first use, and TestEveryConstantIsInTheTable catches it
// before that.
func init() {
	for _, name := range [...]string{
		CacheLineFlush, MemoryBarrier, PersistBarrier, NVRAMBytes,
		NVRAMLineWrites, Syscall, HeapAlloc, HeapFree, BlockRead, BlockWrite,
		Fsync, JournalWrite, WALFrames, Transactions, GroupCommits, Checkpoints,
		CheckpointNanos, CheckpointPages, CheckpointErrors, CommitStallNanos,
		HeapRecycled, HeapRecycleHits, MediaBitFlips, MediaStuckLines,
		MediaReadErrors, BlockTornWrites, BlockShortWrites, BlockIOErrors,
		IORetries, ScrubFramesChecked, ScrubFramesBad, FramesSalvaged,
		FramesDropped, BlocksQuarantined, HeapReservations, HeapReserveDenied,
		PressureStalls, PressureStallNs, UrgentCheckpoints, CommitTimeouts,
		MVCCCommits, MVCCConflicts, NetMessages, NetBytes, NetDropped,
		NetReordered, NetCuts, ServerRequests, ServerShed, ServerFenced,
		ClientRetries, ReplBatchesShipped, ReplFramesShipped, ReplBytesShipped,
		ReplBatchesApplied, ReplAcks, ReplReseeds, ReplDivergences, ReplAckWaits,
		ReplCheckpointErrors, SlowFaultStalls, SlowFaultStallNs, HealthState,
		HealthDegraded, HealthStalled, ReplReseedAborts, HedgedReads, HedgeWins,
		BreakerOpen, ReplicaQuarantines, ReplicaReadmits, DeadlineAborts,
	} {
		register(name, false)
	}
	for _, name := range [...]string{
		TimeMemcpy, TimeFlush, TimeBarrier, TimePersist, TimeSyscall, TimeBlockIO,
		TimeCPU, TimeTotalTxn, TimeCheckpnt, TimeHeapAlloc,
	} {
		register(name, true)
	}
}

// Inc adds delta to the named counter. The name must be in the table
// (a constant above, or registered at init); anything else panics.
func (c *Counters) Inc(name string, delta int64) {
	c.cells[lookup(name, false)].Add(delta)
}

// AddTime attributes a span of virtual time to the named phase, under
// the same rule as Inc.
func (c *Counters) AddTime(name string, d time.Duration) {
	c.cells[lookup(name, true)].Add(int64(d))
}

// Cell returns the cell behind a counter or time name, for a component
// that adds to it on a hot path: bind once at construction, Add per
// event. The address is stable for the life of the Counters and
// survives Reset.
func (c *Counters) Cell(name string) *Cell { return &c.cells[index(name)] }

// Count returns the current value of the named counter.
func (c *Counters) Count(name string) int64 {
	return c.cells[lookup(name, false)].v.Load()
}

// Time returns the virtual time attributed to the named phase.
func (c *Counters) Time(name string) time.Duration {
	return time.Duration(c.cells[lookup(name, true)].v.Load())
}

// Reset zeroes every cell in place: a bound cell keeps counting into
// the same Counters afterwards. An Add racing a Reset lands on either
// side of it.
func (c *Counters) Reset() {
	for i := range c.cells[:len(cellNames)] {
		c.cells[i].set.Store(false)
		c.cells[i].v.Store(0)
	}
}

// Snapshot returns a copy of every counter and time that has been
// added to since the last Reset (a name nothing touched is absent, one
// that received a zero delta is present at 0). Each cell is read
// atomically and exactly; the cells are not read at one instant, so a
// snapshot racing writers may hold one counter's update without a
// sibling's from the same event. Quiesced, it is exact.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Counts: make(map[string]int64),
		Times:  make(map[string]time.Duration),
	}
	for i, info := range cellNames {
		cell := &c.cells[i]
		if !cell.set.Load() {
			continue
		}
		if info.isTime {
			s.Times[info.name] = time.Duration(cell.v.Load())
		} else {
			s.Counts[info.name] = cell.v.Load()
		}
	}
	return s
}

// Snapshot is an immutable copy of a Counters value.
type Snapshot struct {
	Counts map[string]int64
	Times  map[string]time.Duration
}

// Sub returns the delta s - earlier, counter by counter. Keys absent from
// either side are treated as zero.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	d := Snapshot{
		Counts: make(map[string]int64),
		Times:  make(map[string]time.Duration),
	}
	for k, v := range s.Counts {
		if dv := v - earlier.Counts[k]; dv != 0 {
			d.Counts[k] = dv
		}
	}
	for k, v := range earlier.Counts {
		if _, ok := s.Counts[k]; !ok && v != 0 {
			d.Counts[k] = -v
		}
	}
	for k, v := range s.Times {
		if dv := v - earlier.Times[k]; dv != 0 {
			d.Times[k] = dv
		}
	}
	for k, v := range earlier.Times {
		if _, ok := s.Times[k]; !ok && v != 0 {
			d.Times[k] = -v
		}
	}
	return d
}

// Count returns the named counter from the snapshot (zero if absent).
func (s Snapshot) Count(name string) int64 { return s.Counts[name] }

// Time returns the named time from the snapshot (zero if absent).
func (s Snapshot) Time(name string) time.Duration { return s.Times[name] }

// String renders the snapshot sorted by key, one entry per line, for
// debugging and experiment logs.
func (s Snapshot) String() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counts))
	for k := range s.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-20s %d\n", k, s.Counts[k])
	}
	keys = keys[:0]
	for k := range s.Times {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-20s %v\n", k, s.Times[k])
	}
	return b.String()
}
