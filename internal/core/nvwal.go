package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/pager"
)

// SyncMode selects how NVWAL orders its NVRAM writes (§4.1, Figure 4).
type SyncMode int

const (
	// SyncLazy is transaction-aware lazy synchronization: one flush
	// batch plus one persist barrier between the logging phase and the
	// commit-mark write (Figure 4(c), Algorithm 1).
	SyncLazy SyncMode = iota
	// SyncEager flushes and persists after every log entry (Figure
	// 4(b)); the ordering-overhead baseline of Figures 5 and 6.
	SyncEager
	// SyncChecksum is asynchronous commit (§4.2, Figure 4(d)): log
	// entries are never explicitly flushed; only the commit mark and
	// checksum are. Recovery validates the per-frame checksums and
	// invalidates torn transactions — at a small probabilistic risk.
	SyncChecksum
	// SyncStrictPersistency models the §4.4 strict persistency
	// architecture: persist order matches volatile memory order, so no
	// cache-flush instructions or persist barriers appear in the code —
	// but the hardware orders every log store's persist, which the
	// paper conjectures "may significantly limit persist performance".
	SyncStrictPersistency
	// SyncEpochPersistency models §4.4 relaxed (epoch) persistency:
	// hardware persist barriers divide persists into epochs (one for
	// the log writes, one for the commit mark) and write dirty lines
	// back without explicit dccmvac instructions or kernel crossings.
	SyncEpochPersistency
)

func (s SyncMode) String() string {
	switch s {
	case SyncEager:
		return "eager"
	case SyncChecksum:
		return "checksum"
	case SyncStrictPersistency:
		return "strict-persistency"
	case SyncEpochPersistency:
		return "epoch-persistency"
	default:
		return "lazy"
	}
}

// Config parameterizes an NVWAL instance.
type Config struct {
	// Sync selects the persistency-guarantee scheme.
	Sync SyncMode
	// Differential enables byte-granularity differential logging
	// (§3.2). When off, every frame carries the full page.
	Differential bool
	// UserHeap enables user-level NVRAM heap management (§3.3):
	// nv_pre_malloc of blockSize-byte blocks with the pending/in-use
	// protocol, instead of one Heapo nvmalloc per WAL frame.
	UserHeap bool
	// Name is the Heapo persistent-namespace key under which the log's
	// header block is registered, so it survives reboots.
	Name string
	// ChecksumMask weakens frame-checksum validation to the masked bits
	// (0 = full 32-bit CRC). It exists solely for the §4.2 collision
	// study: asynchronous commit is probabilistically safe, and
	// shrinking the checksum makes its failure mode observable.
	ChecksumMask uint32
	// PreparedResolver, when non-nil, resolves in-doubt prepared
	// transactions found at the log tail during recovery: it is called
	// with the global transaction id of each prepared-but-undecided
	// frame group and returns true if the cross-shard coordinator
	// decided commit (the id is covered by the persisted commit-sequence
	// record), in which case recovery flips the provisional mark to a
	// commit mark in place. False — or a nil resolver — aborts the
	// in-doubt transaction by truncating it like any uncommitted tail.
	PreparedResolver func(gtx uint64) bool
	// UnsafeEarlyCommitMark deliberately breaks Algorithm 1's ordering
	// for SyncLazy: the commit mark is written and persisted BEFORE the
	// frame batch is flushed, and the batch's persist barrier is
	// skipped, so Commit acknowledges transactions whose frames are
	// merely queued on the memory controller. TEST-ONLY: it exists to
	// prove the crash-consistency fuzzer detects ordering violations
	// (an acknowledged transaction vanishes after a crash). Never set
	// it outside a test or the fuzzer's -bug mode.
	UnsafeEarlyCommitMark bool
}

// effMask returns the effective validation mask.
func (c Config) effMask() uint32 {
	if c.ChecksumMask == 0 {
		return ^uint32(0)
	}
	return c.ChecksumMask
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "nvwal"
	}
	return c
}

// Label renders the configuration in the paper's Figure 7 naming.
func (c Config) Label() string {
	s := ""
	if c.UserHeap {
		s += "UH+"
	}
	switch c.Sync {
	case SyncEager:
		s += "E"
	case SyncChecksum:
		s += "CS"
	case SyncStrictPersistency:
		s += "SP"
	case SyncEpochPersistency:
		s += "EP"
	default:
		s += "LS"
	}
	if c.Differential {
		s += "+Diff"
	}
	return s
}

// Persistent layout.
//
// Header block (one 4 KB Heapo block, found via the persistent
// namespace):
//
//	[0:8)   magic
//	[8:12)  page size
//	[12:16) format version
//	[16:24) checkpoint id (salt) of the live generation — incremented by
//	        every checkpoint so stale frames in recycled blocks can
//	        never validate
//	[24:32) first log block address (0 = empty log)
//	[32:40) checkpoint record: first block of the generation frozen by
//	        an in-flight incremental checkpoint (0 = none)
//	[40:48) checkpoint record: the frozen generation's salt
//	[48:56) checkpoint record: phase — ckptBackfilling while its pages
//	        may not be durable in the database file yet (recovery must
//	        replay the frozen generation), ckptFreeing once they are
//	        (recovery only frees the frozen blocks)
//	[56:60) checkpoint record: the frozen generation's final chained
//	        CRC at freeze time (the chain seal). Salvage recovery
//	        recomputes the frozen scan's chain and compares: a mismatch
//	        means media damage ate committed frozen frames, so the
//	        (newer) live generation must be discarded too to keep the
//	        surviving transactions a prefix of the committed order
//	[60:64) checkpoint record: the frozen generation's frame count at
//	        freeze time, for salvage accounting
//
// Log block (blockSize bytes from the user heap, or a per-frame block):
//
//	[0:8)   next block address (0 = tail)
//	[8:)    packed, 8-byte-aligned WAL frames
//
// WAL frame header (32 bytes, §3.2):
//
//	[0:8)   commit mark — written last, 8-byte-atomically (§4.1)
//	[8:16)  checkpoint id (salt)
//	[16:20) page number
//	[20:24) in-page offset; bit 31 flags a full frame (replay resets
//	        the page to zero before applying the payload, which has its
//	        trailing clean bytes truncated — without the flag, recovery
//	        over a database-file base could resurrect stale tail bytes)
//	[24:28) frame (payload) size
//	[28:32) chained CRC32 over [8:28) plus payload
const (
	headerMagic     = 0x4E56_5741_4C48_4452 // "NVWALHDR"
	formatVersion   = 3
	hdrPageSizeOff  = 8
	hdrVersionOff   = 12
	hdrSaltOff      = 16
	hdrFirstBlkOff  = 24
	hdrCkptBlkOff   = 32
	hdrCkptSaltOff  = 40
	hdrCkptStateOff = 48
	hdrCkptChainOff = 56
	hdrCkptCountOff = 60
	headerBlockSize = 4096
	// blockSize is the user-heap block size: the paper's 8 KB (§3.3).
	blockSize = 8192

	blockLinkSize = 8
	frameHdrSize  = 32
	commitValue   = 1

	// preparedFlag marks a frame group as provisionally committed by a
	// cross-shard two-phase commit: mark = preparedFlag | gtx, written
	// with the same 8-byte-atomic discipline as a commit mark. The mark
	// word is outside the frame CRC, so recovery (or CompletePrepared)
	// can flip prepared → committed in place without re-chaining.
	preparedFlag = uint64(1) << 63

	offFullFlag = uint32(1) << 31

	// Per-writer stream tags live in offWord bits [16,28): in-page
	// offsets never exceed pageSize-1 ≤ 65535 (plausiblePageSize caps
	// pages at 64 KB), so the low 16 bits fully describe the offset and
	// the bits between it and offFullFlag are free. A tag is pure
	// provenance — frames from concurrent writers may interleave
	// physically, and the tag names which writer's chain each frame
	// belongs to. Tag 0 means "untagged" (solo commits, legacy logs);
	// decode masks the tag out unconditionally, so old logs read
	// identically.
	offStreamShift = 16
	maxStreamTag   = uint32(0xFFF)
	offInOffMask   = uint32(1)<<offStreamShift - 1
)

// Checkpoint record phases.
const (
	ckptNone        = 0
	ckptBackfilling = 1
	ckptFreeing     = 2
)

// RecommendedPageReserve is the per-page tail reserve the database
// should configure its B+tree with in NVWAL mode: frame header plus
// block link word. With it, a "full-page" frame (trailing clean bytes
// truncated, §3.2) occupies exactly pageSize bytes in the log, so an
// 8 KB user-heap block holds two full-page WAL frames — the §3.3
// configuration.
const RecommendedPageReserve = frameHdrSize + blockLinkSize

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// zeroFrameHdr is the shared all-zero frame-header image used to scrub
// a garbage frame slot (abort unwind, recovery's resume point); sharing
// it keeps the scrub off the commit path's allocation budget. Never
// written to.
var zeroFrameHdr [frameHdrSize]byte

// Metric keys specific to NVWAL.
const (
	// MetricLoggedBytes counts WAL payload + frame-header bytes written
	// into the log (the Table 2 "bytes written to NVRAM" accounting).
	MetricLoggedBytes = "nvwal_logged_bytes"
	// MetricBlocks counts NVRAM blocks allocated for the log.
	MetricBlocks = "nvwal_blocks"
)

func init() {
	metrics.RegisterCounter(MetricLoggedBytes)
	metrics.RegisterCounter(MetricBlocks)
}

// Errors.
var (
	ErrCorruptHeader = errors.New("nvwal: corrupt log header")
	ErrBlockFull     = errors.New("nvwal: frame larger than block capacity")
	// ErrLogFull reports that the NVRAM heap cannot promise the blocks
	// this transaction needs. It is returned before (or after cleanly
	// unwinding) any log mutation: the log stays intact, the transaction
	// may be retried once a checkpoint frees space, and the error never
	// latches the writer.
	ErrLogFull = errors.New("nvwal: NVRAM heap full")
	// ErrPreparedPending reports that a prepared (2PC) transaction is
	// awaiting its decision; ordinary commits and new checkpoint rounds
	// are refused until it completes or aborts, so the prepared frames
	// stay the log tail.
	ErrPreparedPending = errors.New("nvwal: prepared transaction pending")
	// ErrNoPrepared reports a Complete/Abort for a global transaction id
	// that is not the pending prepared transaction.
	ErrNoPrepared = errors.New("nvwal: no such prepared transaction")
)

// histFrame is the in-DRAM record of one logged frame, kept for
// snapshot reads. A full frame resets the page to zero before its
// payload applies; a differential frame patches the prior image. The
// payload is read-only: on the append path it aliases the staged image
// the frame was encoded from (so a history frame pins that image until a
// checkpoint retires it), after recovery the bytes read back from NVRAM.
type histFrame struct {
	pgno    uint32
	off     int
	full    bool
	payload []byte
}

// ckptState is one in-flight incremental checkpoint round: the frozen
// generation's identity and the page images at its watermark. It is
// built under w.mu in phase A and owned by the single checkpointer
// (serialized by w.ckptMu) afterwards.
type ckptState struct {
	watermark int           // absolute frame index the round covers
	pages     []ckptPage    // images at the watermark, in page order
	blocks    []heapo.Block // the frozen generation's chain, head first
	salt      uint64        // the frozen generation's salt
	synced    bool          // phase B done: pages durable in the DB file
}

// ckptPage is one page a round writes back: its image at the watermark
// (shared, immutable).
type ckptPage struct {
	pgno uint32
	img  []byte
}

// pageEntry is one page's entry in the wal-index (NVWAL.pages).
type pageEntry struct {
	// version is the page's latest committed image, nil when the log
	// never held the page (or holds it pending).
	version []byte
	// base is, for a page the log held before its first unbackfilled
	// frame, the image that frame replaced: the page's state at every
	// mark at or below that frame, and where replay starts. Nil when that
	// frame first logged the page; the database file holds its earlier
	// state.
	base []byte
	// frames indexes history by page: the ascending absolute indices of
	// the page's unbackfilled frames, what makes imageAt
	// O(frames-for-that-page) instead of O(total history). A round trims
	// it in place, so indexing a frame allocates nothing in steady state.
	frames []int
	// pending marks a page recovery indexed without building: its frames
	// are in history, but version and base are not set yet. version
	// builds it the first time anything needs it and clears the mark,
	// which is never set again; every read of version and base is
	// preceded by that build (version on the writer's side,
	// readLockBuilt on the readers').
	pending bool
	// stagedIn is the last CommitStreams group that staged the page.
	stagedIn uint64
}

// preparedTxn is the volatile side of one prepared-but-undecided 2PC
// transaction: everything CompletePrepared needs to publish it, and
// everything AbortPrepared needs to unwind it. Unlike the commit path's
// reusable scratch, its history records and streams are its own — they
// outlive the append by an arbitrary coordinator round-trip.
type preparedTxn struct {
	gtx        uint64
	markAddr   uint64 // the final frame's header; meaningless without frames
	hist       []histFrame
	streams    []*Stream
	chainAfter uint32
	undoBlocks int
	undoTail   int
}

func (st *ckptState) firstAddr() uint64 {
	if len(st.blocks) == 0 {
		return 0
	}
	return st.blocks[0].Addr
}

// NVWAL is a write-ahead log in NVRAM. It implements pager.Journal and
// pager.PageImager, and serves reads at any pinned mark; CommitStreams
// commits a group of per-writer streams.
//
// All methods are safe for concurrent use: a reader-writer lock lets
// snapshot readers reconstruct pages (PageVersionAt) concurrently with
// each other while serializing against the single writer's WriteFrames
// and Checkpoint — the wal-index reader/writer protocol of §2.
type NVWAL struct {
	heap *heapo.Manager
	dev  *nvram.Device
	db   pager.DBFile
	cfg  Config
	m    *metrics.Counters
	// m's cells on the append and checkpoint paths, bound in Open;
	// recovery, salvage and scrub count by name.
	cLoggedBytes, cBlocks, cFrames, cTxns, cGroupCommits *metrics.Cell
	cCommitStall, cCheckpoints, cCkptPages, cCkptNanos   *metrics.Cell

	pageSize   int
	headerAddr uint64
	salt       uint64

	// mu guards the volatile state below. Writers (WriteFrames, the
	// checkpoint's short critical sections) take it exclusively; the
	// read-only views (PageVersion, PageVersionAt, Mark,
	// FramesSinceCheckpoint, Blocks) share it. The checkpoint's page
	// writeback and fsync run with mu RELEASED — that is the point of
	// the incremental protocol.
	mu sync.RWMutex
	// ckptMu serializes checkpointers against each other (background
	// goroutine vs. an explicit Checkpoint call) without ever blocking
	// writers. Order: ckptMu before mu; mu is never held while taking
	// ckptMu.
	ckptMu sync.Mutex
	// broken latches a WriteFrames failure that could NOT be cleanly
	// unwound. The NVRAM log is append-only — a half-written frame
	// cannot be overwritten like a file WAL slot — so continuing to
	// append after an un-unwound failure would break the recovery
	// checksum chain behind later commits. Every subsequent write
	// returns the latched error instead. Admission failures (ErrLogFull)
	// and aborts whose unwind succeeded never latch.
	broken error
	// res is the reservation backing the append in progress; appendBlock
	// debits it instead of racing the open heap. Guarded by w.mu.
	res *heapo.Reservation
	// disableReserve (tests only) skips commit-time reservation so the
	// mid-append ErrNoSpace unwind path can be exercised directly.
	disableReserve bool

	// Append-kernel scratch, reused across transactions (guarded by w.mu)
	// whatever the entry point, so steady-state commits do not allocate
	// per frame. Only the plan/index bookkeeping lives here; the images
	// that outlive the commit are the callers' own, handed over with the
	// frames (versions keep them, history payloads alias them). solo is
	// the untagged stream legacy frame sets are staged into, one the
	// stream list holding just it, group CommitStreams' last group stamp.
	written []memsim.AddrRange
	newHist []histFrame
	hdrBuf  [frameHdrSize]byte
	solo    Stream
	one     [1]*Stream
	group   uint64

	// Volatile state, rebuilt by recovery (the wal-index analogue).
	blocks   []heapo.Block // live generation's block chain in order
	tailUsed int           // bytes used in the tail block (including link)
	chain    uint32        // running frame checksum
	// pages is the wal-index, indexed by page number: one entry per page
	// up to the largest one the log has staged or indexed. Only a holder
	// of w.mu exclusively grows it (entry), and only by append; readers
	// look a page past its end up as one the log never held. pending
	// counts the entries marked pending; idxBlocks[k] is what is left of
	// the block appendFrame carves frame indexes of size class k from.
	pages     []pageEntry
	pending   int
	idxBlocks [idxClasses][]int
	// history records the frames not yet backfilled into the database
	// file; history[i] is absolute frame histBase+i. histBase is the
	// backfill watermark (SQLite's nBackfill): marks below it are
	// invalid, and no round passes a pinned mark (Pin).
	history  []histFrame
	histBase int
	// Export retention (export.go): the registered export cursors and the
	// retired frames at or above the lowest of them — tail[i] is absolute
	// frame tailBase+i and the tail ends where history begins — so while no
	// cursor is registered nothing is kept and nothing allocated. published
	// is the running count of payload bytes ever put in history, the scale
	// a cursor measures its backlog on.
	cursors   []*ExportCursor
	tail      []histFrame
	tailBase  int
	tailPeak  ExportRetention // high-water mark only
	published int64
	// Image recycling (recycle.go): retired queues, in mark order, the
	// versions publish replaced; a completing round moves those at or
	// below its watermark into spare, which writers copy pages into
	// (SpareImage). exporting counts the batches ExportSince handed out
	// and ExportDone has not taken back. spareMu guards spare alone, so
	// writers outside w.mu take from it; spareHook (tests) sees every
	// image enter (true) and leave it.
	retired   []retiredImage
	hdrPay    []byte
	hdrLoose  bool
	exporting atomic.Int64
	spareMu   sync.Mutex
	spare     [][]byte
	spareHook func(img []byte, in bool)
	// ckpt is the in-flight incremental checkpoint round, nil when none;
	// spent is the last completed one, emptied, whose map and chain array
	// the next round and the next generation reuse.
	ckpt  *ckptState
	spent *ckptState
	// pins counts the readers registered at each mark (Pin), the
	// wal-index read marks of SQLite: phase A of a round refuses a
	// watermark above any of them. Pin registers under mu's read lock, so
	// no round freezes between a reader taking its mark and registering
	// it; pinMu alone guards the map, so readers never queue on the writer
	// lock for it. Order: mu before pinMu.
	pinMu sync.Mutex
	pins  map[int]int
	// pendingPrep is the in-flight prepared (2PC) transaction, nil when
	// none. Its frames are physically in the log under a provisional
	// mark but NOT in the volatile indexes — publish is deferred to
	// CompletePrepared so an abort can unwind the append untouched.
	pendingPrep *preparedTxn

	// salvage is the report of the last crash recovery's salvage pass,
	// nil for a freshly created log.
	salvage *SalvageReport
	// badMu guards badBlocks: log blocks a media read error or a scrub
	// CRC failure has implicated. They are quarantined instead of freed
	// when their generation retires. A separate mutex (not w.mu) lets the
	// scrubber mark blocks while holding only the read lock.
	badMu     sync.Mutex
	badBlocks map[uint64]bool

	// hook, when non-nil, is invoked at named protocol steps so the
	// crash-injection tests can fail power at every point of Algorithm 1
	// and of checkpointing (§4.3).
	hook func(step string)

	// streamTag hands out per-writer stream tags (NewStream); it is the
	// only NVWAL field writers touch without w.mu, which is the point:
	// stream staging runs fully in parallel.
	streamTag atomic.Uint32
}

// Crash-injection step names, in execution order.
const (
	StepAfterPreMalloc   = "after_pre_malloc"     // Algorithm 1 line 6
	StepAfterLinkWrite   = "after_link_write"     // line 7 (before persist)
	StepAfterLinkPersist = "after_link_persist"   // line 11
	StepAfterSetUsed     = "after_set_used"       // line 13
	StepAfterMemcpy      = "after_memcpy"         // line 17
	StepAfterLogFlush    = "after_log_flush"      // line 28
	StepAfterCommitWrite = "after_commit_write"   // line 31 (before flush)
	StepAfterCommitFlush = "after_commit_persist" // line 35
	StepCkptAfterRecord  = "ckpt_after_record"    // A1: record persisted, old generation still live
	StepCkptAfterSalt    = "ckpt_after_salt"      // A2: new generation open, commits proceed
	StepCkptAfterPages   = "ckpt_after_pages"     // B: pages written, not synced (no lock held)
	StepCkptAfterSync    = "ckpt_after_sync"      // B: db file durable (no lock held)
	StepCkptAfterState   = "ckpt_after_state"     // C1: record flipped to freeing
	StepCkptMidFree      = "ckpt_mid_free"        // C2: some frozen blocks freed
	StepCkptAfterFree    = "ckpt_after_free"      // C2: all frozen blocks freed, record stale
)

func (w *NVWAL) step(name string) {
	if w.hook != nil {
		w.hook(name)
	}
}

// SetCrashHook installs a callback invoked at every named protocol step
// (the Step* constants). Failure-injection drivers panic from the hook
// to model power failing at that instant; pass nil to remove it.
func (w *NVWAL) SetCrashHook(fn func(step string)) { w.hook = fn }

// WriteSteps lists the Algorithm 1 injection points in execution order.
func WriteSteps() []string {
	return []string{
		StepAfterPreMalloc, StepAfterLinkWrite, StepAfterLinkPersist,
		StepAfterSetUsed, StepAfterMemcpy, StepAfterLogFlush,
		StepAfterCommitWrite, StepAfterCommitFlush,
	}
}

// CheckpointSteps lists the checkpoint injection points in execution
// order (phase A record/handoff, phase B writeback, phase C free).
func CheckpointSteps() []string {
	return []string{
		StepCkptAfterRecord, StepCkptAfterSalt,
		StepCkptAfterPages, StepCkptAfterSync,
		StepCkptAfterState, StepCkptMidFree, StepCkptAfterFree,
	}
}

// Open attaches to (or creates) the NVWAL registered under cfg.Name in
// the heap manager's persistent namespace, running crash recovery on an
// existing log.
func Open(h *heapo.Manager, db pager.DBFile, cfg Config, m *metrics.Counters) (*NVWAL, error) {
	dev := h.Device()
	cfg = cfg.withDefaults()
	if m == nil {
		m = &metrics.Counters{}
	}
	if blockSize < blockLinkSize+frameHdrSize+db.PageSize() {
		return nil, fmt.Errorf("nvwal: page size %d: a full-page frame does not fit a %d-byte block", db.PageSize(), blockSize)
	}
	// Carve out the checkpoint headroom before the first allocation: the
	// largest headroom-privileged allocation (a header block, or a log
	// block) must stay allocatable even on a heap that write traffic has
	// filled, or the one mechanism that frees space — opening a log and
	// checkpointing — can wedge. The carve-out is a single run: steady-
	// state recycling fragments the heap into block-sized runs, so a
	// longer contiguity demand could never be met. Headroom only grows;
	// several logs sharing a heap each raise it to their own block size.
	hr := (headerBlockSize + heapo.PageSize - 1) / heapo.PageSize
	if b := (blockSize + heapo.PageSize - 1) / heapo.PageSize; b > hr {
		hr = b
	}
	h.EnsureHeadroom(hr)
	w := &NVWAL{
		heap:      h,
		dev:       dev,
		db:        db,
		cfg:       cfg,
		m:         m,
		pageSize:  db.PageSize(),
		badBlocks: make(map[uint64]bool),
		pins:      make(map[int]int),

		cLoggedBytes:  m.Cell(MetricLoggedBytes),
		cBlocks:       m.Cell(MetricBlocks),
		cFrames:       m.Cell(metrics.WALFrames),
		cTxns:         m.Cell(metrics.Transactions),
		cGroupCommits: m.Cell(metrics.GroupCommits),
		cCommitStall:  m.Cell(metrics.CommitStallNanos),
		cCheckpoints:  m.Cell(metrics.Checkpoints),
		cCkptPages:    m.Cell(metrics.CheckpointPages),
		cCkptNanos:    m.Cell(metrics.CheckpointNanos),
	}
	w.solo = w.newStream(0)
	w.one[0] = &w.solo
	if addr, ok := h.GetRoot(cfg.Name); ok {
		w.headerAddr = addr
		if err := w.recover(); err != nil {
			return nil, err
		}
		return w, nil
	}
	// The header allocation rides the headroom carve-out: creating a log
	// must succeed even when outstanding reservations or watermark
	// pressure would deny an ordinary allocation.
	blk, err := h.NVMallocHeadroom(headerBlockSize)
	if err != nil {
		return nil, err
	}
	w.headerAddr = blk.Addr
	w.salt = 1
	w.writeHeader()
	// The freshly allocated header block may carry stale content from a
	// previous life; the checkpoint record must read as "none".
	w.writeCkptRecord(0, 0, ckptNone, 0, 0)
	if err := h.SetRoot(cfg.Name, blk.Addr); err != nil {
		return nil, err
	}
	w.chain = chainSeed(w.salt)
	return w, nil
}

// chainSeed is the CRC-32C of salt's eight little-endian bytes, a new
// generation's first chain value. It runs the table by hand: handed to
// crc32.Checksum, eight bytes on the stack would escape to the heap.
func chainSeed(salt uint64) uint32 {
	crc := ^uint32(0)
	for i := range 8 {
		crc = crcTab[byte(crc)^byte(salt>>(8*i))] ^ crc>>8
	}
	return ^crc
}

// hardwarePersistency reports whether the configured model removes all
// explicit cache-flush code (§4.4).
func (w *NVWAL) hardwarePersistency() bool {
	return w.cfg.Sync == SyncStrictPersistency || w.cfg.Sync == SyncEpochPersistency
}

// persistRange makes [addr, addr+n) durable and ordered: the dmb +
// cache_line_flush + dmb + persist-barrier sequence of Algorithm 1
// under the software schemes, or a hardware epoch barrier under the
// §4.4 persistency models.
func (w *NVWAL) persistRange(addr uint64, n int) {
	if w.hardwarePersistency() {
		w.dev.Domain().EpochBarrier()
		return
	}
	w.dev.Sync([]memsim.AddrRange{{Start: addr, End: addr + uint64(n)}}, memsim.SyncFence|memsim.SyncSyscall|memsim.SyncPersist)
}

// writeHeader persists the header block's live-generation fields.
func (w *NVWAL) writeHeader() {
	w.dev.PutUint64(w.headerAddr, headerMagic)
	w.dev.PutUint32(w.headerAddr+hdrPageSizeOff, uint32(w.pageSize))
	w.dev.PutUint32(w.headerAddr+hdrVersionOff, formatVersion)
	w.dev.PutUint64(w.headerAddr+hdrSaltOff, w.salt)
	w.dev.PutUint64(w.headerAddr+hdrFirstBlkOff, w.firstBlockAddr())
	w.persistRange(w.headerAddr, 32)
}

// writeCkptRecord persists the checkpoint record atomically enough for
// the recovery state machine: the phase field is what recovery
// dispatches on, and every transition writes all the fields. chain and
// frames are the frozen generation's chain seal and frame count; only
// the backfilling transition carries meaningful values (salvage only
// consults them in that phase).
func (w *NVWAL) writeCkptRecord(firstBlk, salt, phase uint64, chain, frames uint32) {
	w.dev.PutUint64(w.headerAddr+hdrCkptBlkOff, firstBlk)
	w.dev.PutUint64(w.headerAddr+hdrCkptSaltOff, salt)
	w.dev.PutUint64(w.headerAddr+hdrCkptStateOff, phase)
	w.dev.PutUint32(w.headerAddr+hdrCkptChainOff, chain)
	w.dev.PutUint32(w.headerAddr+hdrCkptCountOff, frames)
	w.persistRange(w.headerAddr+hdrCkptBlkOff, 32)
}

func (w *NVWAL) firstBlockAddr() uint64 {
	if len(w.blocks) == 0 {
		return 0
	}
	return w.blocks[0].Addr
}

// tailCapacity reports the usable bytes of the tail block.
func (w *NVWAL) tailCapacity() int {
	if len(w.blocks) == 0 {
		return 0
	}
	return w.blocks[len(w.blocks)-1].Size()
}

func align8(n int) int { return (n + 7) &^ 7 }

// linkAddrForNext returns the NVRAM address holding the pointer to the
// next block: the header's first-block field for an empty chain, else
// the tail block's link word.
func (w *NVWAL) linkAddrForNext() uint64 {
	if len(w.blocks) == 0 {
		return w.headerAddr + hdrFirstBlkOff
	}
	return w.blocks[len(w.blocks)-1].Addr
}

// appendBlock links a fresh NVRAM block to the log, following the §3.3
// protocol: persist the reference before marking the block in-use, so a
// crash anywhere in between leaves either an unreferenced pending block
// (reclaimed by the heap manager) or a dangling reference to a freed
// block (cleared by SQLite recovery) — the §4.3 failure cases.
func (w *NVWAL) appendBlock(minSize int) error {
	size := blockSize
	if !w.cfg.UserHeap {
		// Legacy path: one kernel allocation per WAL frame, sized for
		// the frame (Heapo rounds to pages).
		size = blockLinkSize + minSize
	}
	var blk heapo.Block
	var err error
	switch {
	case w.res != nil && w.cfg.UserHeap:
		blk, err = w.res.PreMalloc(size) // promised, pending
	case w.res != nil:
		blk, err = w.res.Malloc(size) // promised, in-use immediately
	case w.cfg.UserHeap:
		blk, err = w.heap.NVPreMalloc(size) // pending
	default:
		blk, err = w.heap.NVMalloc(size) // in-use immediately
	}
	if err != nil {
		return err
	}
	w.step(StepAfterPreMalloc)
	// Initialize the new block's link word before publishing it, and
	// scrub its first frame slot: a recycled block can still hold
	// chain-valid frames from a tail this same generation cut (crash-
	// recovery truncation, aborted 2PC prepare). If such a block were
	// re-linked at the very position it was cut from and power failed
	// before any new frame persisted, those frames would scan valid
	// again — and a prepared mark among them could resolve committed
	// under a coordinator record that has since moved on. The scrub
	// must be durable before the link is, hence it precedes the link
	// persist below.
	w.dev.PutUint64(blk.Addr, 0)
	scrubEnd := blk.Addr + blockLinkSize
	if blk.Size() >= blockLinkSize+frameHdrSize {
		w.dev.Write(blk.Addr+blockLinkSize, zeroFrameHdr[:])
		scrubEnd += frameHdrSize
	}
	if !w.hardwarePersistency() {
		w.dev.Flush(blk.Addr, scrubEnd)
	}

	linkAddr := w.linkAddrForNext()
	w.dev.PutUint64(linkAddr, blk.Addr)
	w.step(StepAfterLinkWrite)
	// Algorithm 1 lines 8–11: dmb; cache_line_flush(ptr); dmb; persist.
	w.persistRange(linkAddr, 8)
	w.step(StepAfterLinkPersist)
	if w.cfg.UserHeap {
		// Algorithm 1 line 13: mark in-use now that the reference is
		// persistent.
		if err := w.heap.NVMallocSetUsedFlag(blk); err != nil {
			// Unlink the pending block before failing, so the abort
			// leaves neither a dangling reference nor a leaked block.
			w.dev.PutUint64(linkAddr, 0)
			w.persistRange(linkAddr, 8)
			_ = w.heap.NVFree(blk)
			return err
		}
	}
	w.step(StepAfterSetUsed)
	w.blocks = append(w.blocks, blk)
	w.tailUsed = blockLinkSize
	w.cBlocks.Add(1)
	return nil
}

// allocFrameSpace returns the NVRAM address for a frame of size bytes,
// allocating a new block when the tail cannot hold it (Algorithm 1
// lines 4–14). groupTotal is the aligned size of the whole per-page
// frame group being written; the legacy (non-user-heap) path allocates
// one Heapo block per logical WAL frame — i.e. per dirty page — sized
// for the group, so differential logging does not multiply kernel
// allocations.
func (w *NVWAL) allocFrameSpace(size, groupTotal int) (uint64, error) {
	need := align8(size)
	if w.cfg.UserHeap && need > blockSize-blockLinkSize {
		return 0, fmt.Errorf("%w: frame %d bytes, block %d", ErrBlockFull, need, blockSize)
	}
	if len(w.blocks) == 0 || w.tailUsed+need > w.tailCapacity() {
		alloc := need
		if !w.cfg.UserHeap && groupTotal > need {
			alloc = groupTotal
		}
		if err := w.appendBlock(alloc); err != nil {
			return 0, err
		}
	}
	tail := w.blocks[len(w.blocks)-1]
	addr := tail.Addr + uint64(w.tailUsed)
	w.tailUsed += need
	return addr, nil
}

// encodeFrameAt encodes one frame — header plus differential payload —
// directly into the reserved NVRAM region at addr with the commit mark
// clear, and advances the checksum chain. Nothing is staged in DRAM
// beyond the 32-byte header scratch: the CRC runs over the header
// fields and the caller's payload bytes in place, and one gather write
// places both ranges (the zero-copy commit path). full marks a frame
// whose replay must reset the page to zero first (§3.2 truncated full
// page).
func (w *NVWAL) encodeFrameAt(addr uint64, pgno uint32, off int, payload []byte, prev uint32, full bool, stream uint32) uint32 {
	hdr := w.hdrBuf[:]
	binary.LittleEndian.PutUint64(hdr[0:], 0) // commit mark written later
	binary.LittleEndian.PutUint64(hdr[8:], w.salt)
	binary.LittleEndian.PutUint32(hdr[16:], pgno)
	offWord := uint32(off) | (stream&maxStreamTag)<<offStreamShift
	if full {
		offWord |= offFullFlag
	}
	binary.LittleEndian.PutUint32(hdr[20:], offWord)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(payload)))
	sum := crc32.Update(prev, crcTab, hdr[8:28])
	sum = crc32.Update(sum, crcTab, payload)
	binary.LittleEndian.PutUint32(hdr[28:], sum)
	w.dev.WriteV(addr, hdr, payload) // Algorithm 1 line 17: memcpy
	return sum
}

// lockWriter takes the exclusive writer lock, charging a contended wait
// to the commit-stall metric — the stall the incremental checkpoint
// exists to shrink (wall time, not virtual: the simulated clock does
// not advance while a goroutine merely waits on a mutex). An
// uncontended acquisition charges nothing.
func (w *NVWAL) lockWriter() {
	if w.mu.TryLock() {
		return
	}
	start := time.Now()
	w.mu.Lock()
	w.cCommitStall.Add(time.Since(start).Nanoseconds())
}

// CommitTransaction implements pager.Journal. A successful commit takes
// the frames' Data: each staged image becomes its page's version, so the
// caller must not write it again.
func (w *NVWAL) CommitTransaction(frames []pager.Frame) error {
	return w.WriteFrames(frames, true)
}

// WriteFrames logs the dirty pages and — when commit is set — writes
// and persists the commit mark. Without it the frames are appended and
// made durable markless: recovery keeps them only if a later commit's
// mark covers them. Either way a successful call takes the frames' Data.
func (w *NVWAL) WriteFrames(frames []pager.Frame, commit bool) error {
	w.lockWriter()
	defer w.mu.Unlock()
	if !commit {
		return w.appendFrames(frames, 0, 0)
	}
	return w.appendFrames(frames, commitValue, 1)
}

// writable reports why the log accepts no append right now, if it does
// not. Caller holds w.mu.
func (w *NVWAL) writable() error {
	if w.broken != nil {
		return w.broken
	}
	if w.pendingPrep != nil {
		// A prepared transaction's frames must stay the log tail until
		// its decision: an append on top would make an abort-unwind (or
		// a recovery truncation) eat a committed transaction.
		return ErrPreparedPending
	}
	return nil
}

// appendFrames appends a legacy frame set as one transaction: the
// frames are staged into the writer's scratch stream (untagged, extent
// arrays reused across commits) and handed to the append kernel. Caller
// holds w.mu.
func (w *NVWAL) appendFrames(frames []pager.Frame, mark uint64, txns int) error {
	if err := w.writable(); err != nil {
		return err
	}
	if len(frames) == 0 {
		return nil
	}
	if err := w.stageFrames(&w.solo, frames); err != nil {
		return err // read-only failure: nothing to latch
	}
	return w.appendStreams(w.one[:], mark, txns)
}

// stageFrames stages a legacy frame set into s against the log's
// current page versions: a page the log already holds is logged
// differentially (§3.2), a first-touch page as a full frame, and an
// identical image (a page dirtied and restored) not at all. Each staged
// image is the caller's own, handed over: it becomes the page's new
// version if the append succeeds. A recovered page is built first, even
// for a full frame: publish needs its images. Caller holds w.mu.
func (w *NVWAL) stageFrames(s *Stream, frames []pager.Frame) error {
	s.Reset()
	for _, fr := range frames {
		base, err := w.version(fr.Pgno)
		if err != nil {
			return err
		}
		if !w.cfg.Differential {
			base = nil
		}
		if _, err := s.StagePage(fr.Pgno, fr.Data, base); err != nil {
			return err
		}
	}
	return nil
}

// frameGroupBytes is the aligned log footprint of one page's frames.
func frameGroupBytes(extents []Extent) int {
	n := 0
	for _, e := range extents {
		n += align8(frameHdrSize + e.Len)
	}
	return n
}

// planAppend simulates the append — tail packing and block allocation —
// without touching NVRAM, mirroring allocFrameSpace/appendBlock step
// for step. It leaves in each stream the fresh blocks its frames force,
// given the tail the preceding streams leave behind, and the largest
// single allocation among them: exactly what that stream's reservation
// must promise for the append to be incapable of running out of space.
func (w *NVWAL) planAppend(streams []*Stream) error {
	simBlocks, simTailCap, simTailUsed := len(w.blocks), w.tailCapacity(), w.tailUsed
	for _, s := range streams {
		s.newBlocks, s.maxAlloc = 0, 0
		for i := range s.pages {
			extents := s.pages[i].extents
			groupTotal := frameGroupBytes(extents)
			if !w.cfg.UserHeap && simBlocks > 0 {
				simTailUsed = simTailCap // legacy: tail space not reused across frames
			}
			for _, e := range extents {
				need := align8(frameHdrSize + e.Len)
				if w.cfg.UserHeap && need > blockSize-blockLinkSize {
					return fmt.Errorf("%w: frame %d bytes, block %d", ErrBlockFull, need, blockSize)
				}
				if simBlocks == 0 || simTailUsed+need > simTailCap {
					alloc := blockSize
					if !w.cfg.UserHeap {
						alloc = max(need, groupTotal) + blockLinkSize
					}
					simBlocks++
					s.newBlocks++
					s.maxAlloc = max(s.maxAlloc, alloc)
					// Heapo rounds allocations up to whole pages.
					simTailCap = (alloc + heapo.PageSize - 1) / heapo.PageSize * heapo.PageSize
					simTailUsed = blockLinkSize
				}
				simTailUsed += need
			}
		}
	}
	return nil
}

// reserve promises every stream the blocks planAppend found it needs —
// one reservation per stream, so admission accounting stays per-writer
// even though the flush is shared. A denial releases what was already
// promised and fails before any NVRAM mutation.
func (w *NVWAL) reserve(streams []*Stream) error {
	for i, s := range streams {
		if s.newBlocks == 0 {
			continue
		}
		if err := w.heap.ReserveInto(&s.resv, s.newBlocks, s.maxAlloc); err != nil {
			w.unreserve(streams[:i])
			return fmt.Errorf("%w: cannot promise %d blocks of %d bytes for stream %d: %v",
				ErrLogFull, s.newBlocks, s.maxAlloc, s.id, err)
		}
	}
	return nil
}

func (w *NVWAL) unreserve(streams []*Stream) {
	w.res = nil
	for _, s := range streams {
		if s.newBlocks > 0 {
			s.resv.Release()
		}
	}
}

// abortAppend unwinds a failed append back to the pre-transaction
// state: fresh blocks are returned to the heap, the tail cursor is
// restored, the dangling link is cleared, and the first garbage frame
// slot is invalidated (same no-resurrection discipline recovery
// applies at its resume point). Volatile indexes were not yet touched —
// appendStreams publishes only after all NVRAM writes succeed. An
// unwind that itself fails latches the writer.
func (w *NVWAL) abortAppend(nBlocks, tailUsed int, cause error) error {
	for i := len(w.blocks) - 1; i >= nBlocks; i-- {
		if err := w.heap.NVFree(w.blocks[i]); err != nil {
			w.blocks = w.blocks[:i+1]
			w.broken = fmt.Errorf("nvwal: append abort could not free block %#x: %v (aborting on: %v)",
				w.blocks[i].Addr, err, cause)
			return w.broken
		}
	}
	w.blocks = w.blocks[:nBlocks]
	w.tailUsed = tailUsed
	w.clearLink(w.linkAddrForNext())
	if len(w.blocks) > 0 {
		tail := w.blocks[len(w.blocks)-1]
		if tailUsed+frameHdrSize <= tail.Size() {
			a := tail.Addr + uint64(tailUsed)
			w.dev.Write(a, zeroFrameHdr[:])
			w.persistRange(a, frameHdrSize)
		}
	}
	if errors.Is(cause, heapo.ErrNoSpace) {
		return fmt.Errorf("%w: %v", ErrLogFull, cause)
	}
	return cause
}

// appendStreams is sqliteWriteWalFramesToNVRAM (Algorithm 1), the one
// append path under every commit entry point: log every staged frame of
// every stream (frames of one stream stay consecutive and streams
// append in the given order — the commit order — so recovery's linear
// scan replays them with no reordering), enforce the transaction-aware
// persistency guarantee, write and persist the mark on the final frame,
// and publish. mark is 0 (log only), commitValue, or preparedFlag|gtx —
// the 2PC prepare, which appends the same physical frames under the
// provisional mark and holds the publish in w.pendingPrep until the
// coordinator decides; its streams must not be reused meanwhile. txns
// is the number of logical transactions the append commits. Caller
// holds w.mu and has checked writable.
//
// Plan first, then reserve: after that the append cannot run out of
// NVRAM space mid-way — every block it will link is promised — so
// exhaustion is a clean, retryable ErrLogFull with nothing to unwind.
func (w *NVWAL) appendStreams(streams []*Stream, mark uint64, txns int) error {
	if err := w.planAppend(streams); err != nil {
		return err
	}
	if !w.disableReserve {
		if err := w.reserve(streams); err != nil {
			return err
		}
		defer w.unreserve(streams)
	}
	undoBlocks, undoTail := len(w.blocks), w.tailUsed
	w.written, w.newHist = w.written[:0], w.newHist[:0]
	chain := w.chain

	for _, s := range streams {
		w.res = nil
		if s.newBlocks > 0 && !w.disableReserve {
			w.res = &s.resv
		}
		for i := range s.pages {
			sp := &s.pages[i]
			groupTotal := frameGroupBytes(sp.extents)
			if !w.cfg.UserHeap && len(w.blocks) > 0 {
				// Legacy path: one Heapo allocation per dirty page's WAL
				// frame — leftover tail space is not reused across frames.
				w.tailUsed = w.tailCapacity()
			}
			sp.header = sp.pgno == 1 && !sp.full && inHeader(sp.extents)
			for _, e := range sp.extents {
				// The history record aliases the staged image, which the log
				// owns from here on and never writes: no payload copy — but
				// for a header commit's few bytes (recycle.go).
				payload := sp.img[e.Off : e.Off+e.Len : e.Off+e.Len]
				size := frameHdrSize + len(payload)
				addr, err := w.allocFrameSpace(size, groupTotal)
				if err != nil {
					return w.abortAppend(undoBlocks, undoTail, err)
				}
				chain = w.encodeFrameAt(addr, sp.pgno, e.Off, payload, chain, sp.full, s.id)
				w.step(StepAfterMemcpy)
				switch w.cfg.Sync {
				case SyncEager, SyncStrictPersistency:
					// Figure 4(b): synchronize per log entry. Under §4.4
					// strict persistency that costs no instructions, but
					// each log write drains before the next may persist.
					w.persistRange(addr, size)
				}
				w.written = append(w.written, memsim.AddrRange{Start: addr, End: addr + uint64(size)})
				hist := payload
				if sp.header {
					hist = w.detach(payload)
				}
				w.newHist = append(w.newHist, histFrame{pgno: sp.pgno, off: e.Off, full: sp.full, payload: hist})
				w.cLoggedBytes.Add(int64(size))
			}
		}
	}

	var markAddr uint64
	if len(w.written) > 0 {
		markAddr = w.written[len(w.written)-1].Start
	}
	marked := mark != 0 && len(w.written) > 0
	// The deliberate ordering bug (see Config.UnsafeEarlyCommitMark):
	// persist the commit mark while the frames it covers are still
	// dirty in cache, then let the batch flush queue them without a
	// persist barrier. The transaction is acknowledged durable while
	// its frames would not survive a power failure.
	earlyMark := w.cfg.UnsafeEarlyCommitMark && w.cfg.Sync == SyncLazy
	if marked && earlyMark {
		w.persistMark(markAddr, mark)
	}

	switch {
	case w.cfg.Sync == SyncLazy && len(w.written) > 0:
		// Algorithm 1 lines 21–28: one dmb, a batch of per-frame
		// cache_line_flush syscalls, a dmb, and one persist barrier.
		phase := memsim.SyncFence | memsim.SyncSyscall
		if !earlyMark {
			phase |= memsim.SyncPersist
		}
		w.dev.Sync(w.written, phase)
	case w.cfg.Sync == SyncEpochPersistency && len(w.written) > 0:
		// §4.4 relaxed persistency: one hardware epoch boundary closes
		// the logging phase; no flush instructions, no kernel crossing.
		w.dev.Domain().EpochBarrier()
	}
	// SyncChecksum (Figure 4(d)) flushes nothing here: the per-frame
	// checksums written above let recovery detect torn log entries.
	w.step(StepAfterLogFlush)

	if marked && !earlyMark {
		w.persistMark(markAddr, mark)
	}

	if mark&preparedFlag != 0 {
		// Prepare stops here: the frames are durable under a provisional
		// mark, but none of the volatile state advances until the
		// coordinator's decision. writable/beginCheckpoint refuse new
		// work meanwhile, so these frames remain the log tail. The
		// history records outlive this call, so they leave the scratch.
		w.pendingPrep = &preparedTxn{
			gtx:        mark &^ preparedFlag,
			markAddr:   markAddr,
			hist:       slices.Clone(w.newHist),
			streams:    streams,
			chainAfter: chain,
			undoBlocks: undoBlocks,
			undoTail:   undoTail,
		}
		return nil
	}
	w.publish(chain, w.newHist, streams, txns)
	return nil
}

// persistMark is Algorithm 1 lines 29–35: set the mark — commit, or a
// 2PC prepare's provisional one — in a frame header and persist it with
// 8-byte atomicity.
func (w *NVWAL) persistMark(addr, mark uint64) {
	w.dev.PutUint64(addr, mark)
	w.step(StepAfterCommitWrite)
	w.persistRange(addr, 8)
	w.step(StepAfterCommitFlush)
}

// publish advances the volatile state over an appended frame set: the
// checksum chain, the snapshot history with its per-page index, and
// each staged page's new version image (ownership passes to the log;
// later streams win, as they appended later). Every version replaced is
// queued for the round that retires this commit (queueRetired), or
// released at once if nothing can reach it (retire).
func (w *NVWAL) publish(chain uint32, hist []histFrame, streams []*Stream, txns int) {
	w.chain = chain
	for _, f := range hist {
		e := w.entry(f.pgno)
		if len(e.frames) == 0 {
			// The page's first unbackfilled frame: record the image it
			// replaces (the pre-transaction version, which a completed
			// checkpoint round has made durable). A page the log never
			// held has none; the database file serves it. An untracked page
			// is never pending, so its version needs no build.
			e.base = e.version
		}
		e.frames = w.appendFrame(e.frames, w.histBase+len(w.history))
		w.history = append(w.history, f)
		w.published += int64(len(f.payload))
	}
	mark := w.histBase + len(w.history)
	for _, s := range streams {
		for i := range s.pages {
			sp := &s.pages[i]
			e := w.entry(sp.pgno)
			w.retire(sp.pgno, e.version, sp.img, mark)
			e.version = sp.img
			if sp.pgno == 1 {
				w.hdrLoose = sp.header
			}
		}
	}
	w.cFrames.Add(int64(len(hist)))
	if txns > 0 {
		w.cTxns.Add(int64(txns))
	}
}

// version is the one way to a page's latest committed image, nil when
// the log holds none. A recovered page is built the first time it is
// asked for, and only then: when its first frame is differential, the
// database-file page is its base, read once and kept as the entry's
// base (a full first frame needs none); its frames replay on top into
// the entry's version. A failed read leaves the page pending and returns the
// error; no image stands in for it. Caller holds w.mu exclusively.
func (w *NVWAL) version(pgno uint32) ([]byte, error) {
	if int(pgno) >= len(w.pages) {
		return nil, nil
	}
	e := &w.pages[pgno]
	if !e.pending {
		return e.version, nil
	}
	// No checkpoint round can have retired any of its frames: freezing
	// one builds every pending page first.
	img := make([]byte, w.pageSize)
	if !w.history[e.frames[0]-w.histBase].full {
		if err := w.db.ReadPage(pgno, img); err != nil {
			return nil, fmt.Errorf("nvwal: reading the database-file base of recovered page %d: %w", pgno, err)
		}
		e.base = slices.Clone(img)
	}
	for _, abs := range e.frames {
		f := w.history[abs-w.histBase]
		if f.full {
			clear(img)
		}
		applyExtent(img, f.off, f.payload)
	}
	e.version, e.pending = img, false
	w.pending--
	return img, nil
}

// entry returns pgno's wal-index entry, growing the table by append to
// hold it. Caller holds w.mu exclusively.
func (w *NVWAL) entry(pgno uint32) *pageEntry {
	if n := int(pgno) + 1 - len(w.pages); n > 0 {
		w.pages = append(w.pages, make([]pageEntry, n)...)
	}
	return &w.pages[pgno]
}

// buildPending builds every pending page, in page order. Caller holds
// w.mu exclusively.
func (w *NVWAL) buildPending() error {
	for pgno := 0; w.pending > 0; pgno++ {
		if _, err := w.version(uint32(pgno)); err != nil {
			return err
		}
	}
	return nil
}

// readLockBuilt takes w.mu for reading with pgno built: a pending page is
// built under the exclusive lock first. Once built a page never becomes
// pending again, so the read lock taken afterwards finds it built.
func (w *NVWAL) readLockBuilt(pgno uint32) error {
	w.mu.RLock()
	if int(pgno) >= len(w.pages) || !w.pages[pgno].pending {
		return nil
	}
	w.mu.RUnlock()
	w.mu.Lock()
	_, err := w.version(pgno)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.mu.RLock()
	return nil
}

// PageVersion implements pager.Journal. A recovered page whose image
// cannot be built (its database-file base is unreadable) reports ok with
// a nil image: the log holds the page, and the file's copy is not it.
func (w *NVWAL) PageVersion(pgno uint32) ([]byte, bool) {
	img, _, _, err := w.imageAt(pgno, pager.Latest)
	if err != nil {
		return nil, true
	}
	if img == nil {
		return nil, false
	}
	return slices.Clone(img), true
}

// FramesSinceCheckpoint implements pager.Journal: the count of frames
// not yet backfilled into the database file.
func (w *NVWAL) FramesSinceCheckpoint() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.history)
}

// Mark captures the current end of the committed log. Marks are absolute
// frame indices and grow monotonically across checkpoints. A reader that
// resolves pages at a mark pins it (Pin), which keeps it at or above the
// backfill watermark, so the frames it needs stay indexed.
func (w *NVWAL) Mark() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.histBase + len(w.history)
}

// imageAt is the one read view of the log (DESIGN.md §22): the
// read-only image of pgno at mark, resolved through the per-page index,
// whether a frame of the page lies below the mark, and whether the image
// is shared. Every image it returns without replaying is one the log
// retains anyway — installed by publish, completeCheckpoint or recovery
// and never written again — so callers share it and must not modify it;
// a replayed one is the caller's alone (worth keeping: it cost a chain
// walk). Nil means the database file holds the page. A pending page is
// built first (readLockBuilt); when that fails the error is all there is.
// Reads charge no virtual time; this is the site that will.
//
//	frames below mark   frames at/above mark   image
//	none                none                   version (= the file, once logged), else nil
//	none                some                   base, else nil
//	all                 none                   version
//	some                some                   base + the frames below mark, replayed
func (w *NVWAL) imageAt(pgno uint32, mark int) (img []byte, below, shared bool, err error) {
	if err := w.readLockBuilt(pgno); err != nil {
		return nil, false, false, err
	}
	defer w.mu.RUnlock()
	if int(pgno) >= len(w.pages) {
		return nil, false, true, nil
	}
	e := &w.pages[pgno]
	n := sort.SearchInts(e.frames, mark)
	switch n {
	case len(e.frames):
		return e.version, n > 0, true, nil
	case 0:
		return e.base, false, true, nil
	}
	// Rewritten after the mark: O(frames of this page below it).
	img = make([]byte, w.pageSize)
	copy(img, e.base)
	for _, abs := range e.frames[:n] {
		f := w.history[abs-w.histBase]
		if f.full {
			clear(img)
		}
		applyExtent(img, f.off, f.payload)
	}
	return img, true, false, nil
}

// PageVersionAt is pgno's image at the mark, or ok=false when no frame
// of the page lies below it. The image is read-only, and shared unless it
// had to be replayed (see imageAt). A recovered page whose image cannot
// be built reports ok with a nil image, as PageVersion does.
func (w *NVWAL) PageVersionAt(pgno uint32, mark int) ([]byte, bool) {
	img, below, _, err := w.imageAt(pgno, mark)
	if err != nil {
		return nil, true
	}
	if !below {
		return nil, false
	}
	return img, true
}

// PageImageAt implements pager.PageImager: the read-only image of pgno
// at the mark whether or not a frame lies below it, nil when only the
// database file holds the page; shared is false for an image replayed
// for this call. The error is a recovered page's failed build.
func (w *NVWAL) PageImageAt(pgno uint32, mark int) (img []byte, shared bool, err error) {
	img, _, shared, err = w.imageAt(pgno, mark)
	return img, shared, err
}

// Pin registers a reader at the current mark and returns the mark: until
// the matching Unpin, no checkpoint round retires a frame the mark needs
// — phase A refuses a watermark above it with pager.ErrCheckpointPending.
// Readers proceed against a stable version while the writer appends
// (§2), and the checkpoint never pulls it from under them.
func (w *NVWAL) Pin() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	mark := w.histBase + len(w.history)
	w.pinMu.Lock()
	w.pins[mark]++
	w.pinMu.Unlock()
	return mark
}

// Unpin releases one Pin of mark.
func (w *NVWAL) Unpin(mark int) {
	w.pinMu.Lock()
	defer w.pinMu.Unlock()
	if n := w.pins[mark]; n > 1 {
		w.pins[mark] = n - 1
	} else {
		delete(w.pins, mark)
	}
}

// pinnedBelow reports whether a reader holds a mark below watermark.
// Called with w.mu held, so no Pin can register meanwhile.
func (w *NVWAL) pinnedBelow(watermark int) bool {
	w.pinMu.Lock()
	defer w.pinMu.Unlock()
	for m := range w.pins {
		if m < watermark {
			return true
		}
	}
	return false
}

// Checkpoint implements pager.Journal: one round of the non-blocking
// checkpoint pipeline (§4.3 made incremental).
//
// Phase A (short w.mu critical section): persist a checkpoint record
// naming the current generation, then bump the salt and hand the block
// chain off to the round — commits proceed into the new generation
// immediately, and frames they log are carried over to the next round
// instead of lost (the backfill-watermark protocol, SQLite's nBackfill).
//
// Phase B (no lock): write the frozen images to the database file and
// fsync while the writer keeps appending.
//
// Phase C (short w.mu critical section): flip the record to "freeing",
// release the frozen NVRAM blocks (to the heap's recycle pool under
// UserHeap), retire the record, and drop the backfilled prefix from the
// volatile per-page index.
//
// A reader pinned below the current mark (Pin) refuses the round before
// it freezes anything: pager.ErrCheckpointPending, the log intact.
func (w *NVWAL) Checkpoint() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	st, err := w.beginCheckpoint()
	if err != nil || st == nil {
		return err
	}
	if err := w.backfill(st); err != nil {
		return err
	}
	return w.completeCheckpoint(st, nil)
}

// FreezeCheckpoint runs phase A of a round on its own: the checkpoint
// record and the salt bump, two persists and no block I/O. From its return
// the round's watermark is a fact — ExportSince stamps it into every batch,
// recovery completes the round — and the next Checkpoint runs phases B and
// C of this round instead of starting one. A caller that owes somebody an
// acknowledgement freezes, acknowledges, then writes back. Pinned readers
// refuse it as they refuse Checkpoint; with a round already frozen, or
// nothing to backfill, the call does nothing.
func (w *NVWAL) FreezeCheckpoint() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	_, err := w.beginCheckpoint()
	return err
}

// beginCheckpoint runs phase A and returns the round's state, or
// (nil, nil) when the log has nothing to backfill. Called with w.ckptMu
// held.
func (w *NVWAL) beginCheckpoint() (*ckptState, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st := w.ckpt; st != nil {
		// Resume a round that stopped after phase A: FreezeCheckpoint ran it
		// ahead, or a database-file write error cut backfill short. No pin
		// is below its watermark: a reader pinned since has a mark at or
		// above it, as marks only grow.
		return st, nil
	}
	if len(w.history) == 0 {
		return nil, nil
	}
	// Freezing the generation while a 2PC transaction is prepared would
	// seal its frames, which are not in history, into the frozen chain —
	// completing the round would free them. Prepared windows are short
	// (the writer slot is held across the 2PC round-trip); let the caller
	// retry, as when a reader's pin is below the watermark.
	if w.pendingPrep != nil || w.pinnedBelow(w.histBase+len(w.history)) {
		return nil, pager.ErrCheckpointPending
	}

	// The round writes every indexed page's version back and retires the
	// frames a pending page would be built from: build them now. A base
	// that cannot be read fails the round before it freezes anything.
	if err := w.buildPending(); err != nil {
		return nil, err
	}
	// The last round's state is reused: its pages array, and its chain
	// array — emptied as that round freed its blocks — for the next
	// generation.
	st := w.spent
	w.spent = nil
	if st == nil {
		st = &ckptState{}
	}
	next := st.blocks[:0]
	st.watermark, st.blocks, st.salt, st.synced = w.histBase+len(w.history), w.blocks, w.salt, false
	for i, f := range w.history {
		// Every indexed page once, at its last frame, with its image at
		// the watermark; shared, not copied — version images are replaced
		// wholesale on commit, never mutated in place.
		if e := &w.pages[f.pgno]; e.frames[len(e.frames)-1] == w.histBase+i {
			st.pages = append(st.pages, ckptPage{pgno: f.pgno, img: e.version})
		}
	}
	slices.SortFunc(st.pages, func(a, b ckptPage) int { return cmp.Compare(a.pgno, b.pgno) })
	// SyncChecksum acknowledges commits before their frames persist
	// (§4.2), so the chain/count about to be sealed describe volatile
	// state: a crash mid-backfill would legally lose sealed frames,
	// which salvage could not tell apart from media damage. Make the
	// log durable first — as SQLite fsyncs the WAL file before
	// backfilling it — so a sealed-scan shortfall only ever means
	// real damage.
	if w.cfg.Sync == SyncChecksum {
		rs := make([]memsim.AddrRange, len(w.blocks))
		for i, b := range w.blocks {
			rs[i] = memsim.AddrRange{Start: b.Addr, End: b.Addr + uint64(b.Size())}
		}
		w.dev.Sync(rs, memsim.SyncPersist)
	}
	// A1: persist the record naming the generation about to freeze,
	// sealed with its final chain value and frame count so salvage can
	// tell a truncated frozen scan from a complete one. A crash here is
	// detected by ckptSalt == live salt and ignored.
	w.writeCkptRecord(w.firstBlockAddr(), w.salt, ckptBackfilling, w.chain, uint32(len(w.history)))
	w.step(StepCkptAfterRecord)
	// A2: open the new generation. The salt bump fences every frozen
	// frame; commits proceed into the fresh chain immediately.
	w.salt++
	w.blocks = next
	w.tailUsed = 0
	w.chain = chainSeed(w.salt)
	w.writeHeader()
	w.ckpt = st
	w.step(StepCkptAfterSalt)
	return st, nil
}

// backfill runs phase B — the expensive page writeback + fsync — with
// no lock held: commits and snapshot reads proceed concurrently.
func (w *NVWAL) backfill(st *ckptState) error {
	if st.synced {
		return nil
	}
	start := time.Now()
	for _, pg := range st.pages {
		if err := w.db.WritePage(pg.pgno, pg.img); err != nil {
			return err
		}
	}
	w.step(StepCkptAfterPages)
	if err := w.db.Sync(); err != nil {
		return err
	}
	st.synced = true
	w.cCkptPages.Add(int64(len(st.pages)))
	w.cCkptNanos.Add(time.Since(start).Nanoseconds())
	w.step(StepCkptAfterSync)
	return nil
}

// newIdxCap is a fresh page index's capacity: one grown from a single
// frame would regrow, 1 → 2 → 4 → 8, on its way to a busy page's
// frames per round. idxClasses is how many index sizes are carved from
// blocks: newIdxCap << k frames for k < idxClasses (8, 16, 32).
const (
	newIdxCap  = 8
	idxClasses = 3
)

// appendFrame appends frame i to a page's frame index f. A full index of
// a carved size moves to one of twice its capacity (newIdxCap for a page
// the log indexes for the first time), carved from a block of 64 such
// indexes: a page keeps its index for good, so a growing database costs
// one allocation per 64 pages per size its pages reach, not one per
// page per size. An index past the largest carved size grows by append.
// Caller holds w.mu exclusively.
func (w *NVWAL) appendFrame(f []int, i int) []int {
	if len(f) < cap(f) {
		return append(f, i)
	}
	k, c := 0, newIdxCap
	for c <= len(f) {
		k, c = k+1, c<<1
	}
	if k >= idxClasses {
		return append(f, i)
	}
	b := w.idxBlocks[k]
	if len(b) < c {
		b = make([]int, 64*c)
	}
	w.idxBlocks[k] = b[c:]
	return append(append(b[:0:c], f...), i)
}

// completeCheckpoint runs phase C: free the frozen generation and drop
// the backfilled prefix from the volatile index. Frees are NVRAM
// metadata writes (no block I/O), so the critical section stays short.
// rep, set when recovery finishes the round, counts the frozen blocks
// that go to quarantine.
func (w *NVWAL) completeCheckpoint(st *ckptState, rep *SalvageReport) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// C1: the images are durable — recovery no longer needs the frozen
	// frames, only to finish freeing their blocks.
	w.writeCkptRecord(st.firstAddr(), st.salt, ckptFreeing, 0, 0)
	w.step(StepCkptAfterState)
	// C2: free tail-first so recovery's head-first walk always sees a
	// valid chain prefix; trim st.blocks as they go so an interrupted
	// round resumed later cannot double-free. Frees are best-effort —
	// a leaked block is reclaimable, a blocked checkpoint is not.
	half := len(st.blocks) / 2
	for i := len(st.blocks) - 1; i >= 0; i-- {
		w.releaseBlock(st.blocks[i], w.cfg.UserHeap, rep)
		st.blocks = st.blocks[:i]
		if i == half && half > 0 {
			w.step(StepCkptMidFree)
		}
	}
	w.step(StepCkptAfterFree)
	// C3: retire the record, then advance the backfill watermark.
	w.writeCkptRecord(0, 0, ckptNone, 0, 0)
	// History and the per-page index keep their arrays: the surviving
	// frames move to the front. Only the round's pages have frames below
	// its watermark.
	retired := w.history[:st.watermark-w.histBase]
	w.retainForExport(retired)
	n := copy(w.history, w.history[len(retired):])
	clear(w.history[n:])
	w.history = w.history[:n]
	w.histBase = st.watermark
	for _, pg := range st.pages {
		e := &w.pages[pg.pgno]
		e.frames = e.frames[:copy(e.frames, e.frames[sort.SearchInts(e.frames, st.watermark):])]
		// The surviving frames now follow the image this round just made
		// durable (the page's state at the watermark) — the append-time
		// base below the watermark is gone from history.
		e.base = nil
		if len(e.frames) > 0 {
			e.base = pg.img
		}
	}
	w.releaseImages(st.watermark)
	w.ckpt = nil
	clear(st.pages)
	st.pages = st.pages[:0]
	w.spent = st
	w.cCheckpoints.Add(1)
	return nil
}

// Config returns the effective configuration.
func (w *NVWAL) Config() Config { return w.cfg }

// Blocks reports the number of live NVRAM log blocks, including a
// frozen generation an in-flight checkpoint round has not freed yet
// (for the §3.3 frames-per-block statistic).
func (w *NVWAL) Blocks() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := len(w.blocks)
	if w.ckpt != nil {
		n += len(w.ckpt.blocks)
	}
	return n
}
