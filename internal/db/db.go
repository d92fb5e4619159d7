// Package db is the embedded database engine tying the reproduction
// together — the role SQLite plays in the paper. It exposes a
// serverless, single-writer transactional key-value API over named
// tables (SQLite's B-trees), with the journal mode selecting where the
// write-ahead log lives:
//
//   - JournalWAL: stock SQLite WAL on the EXT4 flash file system;
//   - JournalOptimizedWAL: the paper's fixed WAL baseline (aligned
//     frames via the early-split B+tree, WALDIO pre-allocation);
//   - JournalNVWAL: the paper's contribution, the log in NVRAM.
//
// Query-processing CPU time dominates SQLite transactions (§5.1:
// "SQLite throughput is governed more by the computation performance
// than by the I/O performance"), so the engine charges a calibrated CPU
// cost per operation and per commit to the virtual clock; journaling
// costs then shift throughput exactly as the paper's figures show.
package db

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/dbfile"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/platform"
	"repro/internal/rollback"
	"repro/internal/wal"
)

// JournalMode selects the write-ahead-log implementation.
type JournalMode int

const (
	// JournalWAL is stock SQLite WAL on flash.
	JournalWAL JournalMode = iota
	// JournalOptimizedWAL is the §5.4 optimized flash WAL.
	JournalOptimizedWAL
	// JournalNVWAL keeps the log in NVRAM.
	JournalNVWAL
	// JournalRollback is SQLite's classic rollback-journal (DELETE)
	// mode, the pre-WAL baseline of §1/§2.
	JournalRollback
)

func (j JournalMode) String() string {
	switch j {
	case JournalOptimizedWAL:
		return "optimized-wal"
	case JournalNVWAL:
		return "nvwal"
	case JournalRollback:
		return "rollback"
	default:
		return "wal"
	}
}

// CPUProfile is the query-execution cost model of one platform.
type CPUProfile struct {
	// TxnFixed is charged once per transaction (parsing, locking,
	// commit processing).
	TxnFixed time.Duration
	// PerOp is charged per record operation (B-tree descent, cell
	// manipulation).
	PerOp time.Duration
}

// CPU profiles calibrated against the paper's anchors: 424 µs per
// single-insert transaction on Tuna (§5.1), and 5812 inserts/s for
// NVWAL UH+LS+Diff at 2 µs NVRAM latency on the Nexus 5 (§5.4).
var (
	CPUTuna   = CPUProfile{TxnFixed: 235 * time.Microsecond, PerOp: 170 * time.Microsecond}
	CPUNexus5 = CPUProfile{TxnFixed: 85 * time.Microsecond, PerOp: 62 * time.Microsecond}
)

// Options configures Open.
type Options struct {
	Journal JournalMode
	// NVWAL configures the NVRAM log (JournalNVWAL only). Name defaults
	// to "nvwal:<dbname>".
	NVWAL core.Config
	// WALPrealloc overrides the optimized WAL's initial pre-allocation
	// size in pages (0 selects the paper's 8, which doubles as it
	// fills, §5.4).
	WALPrealloc int
	// CheckpointLimit is the frame count that triggers an automatic
	// checkpoint after commit (SQLite's default 1000). Negative
	// disables auto-checkpointing; 0 selects the default.
	CheckpointLimit int
	// CPU is the platform cost model; zero value charges no CPU time.
	CPU CPUProfile
	// Concurrent enables the goroutine-safe multi-reader/single-writer
	// protocol: Begin blocks until the writer slot frees (instead of
	// returning ErrTxnOpen), non-snapshot reads serialize against the
	// writer, and snapshot ReadTxs (JournalNVWAL) stay lock-free. Off,
	// the engine keeps its legacy single-goroutine contract: a second
	// Begin while a transaction is open is a programming error reported
	// as ErrTxnOpen.
	Concurrent bool
	// GroupCommit batches up to this many concurrently committing MVCC
	// sessions (BeginConcurrent) into one journal flush — Algorithm 1's
	// commit flag: the sessions' log streams merge under one append, only
	// the final frame carries the commit mark, so one flush batch, one
	// persist barrier and one commit-mark persist cover the whole group.
	// Atomicity coarsens to the group: a crash loses the whole in-flight
	// group, never a prefix. A group flushes as soon as every open
	// session is waiting in it, so K sessions never wait for an absent
	// (K+1)th. A Tx (Begin, CreateTable, DropTable, a 2PC prepare) never
	// joins a group: it flushes the sessions already queued, then commits
	// on its own. Values <= 1 commit each session individually. Values
	// above 1 require Concurrent and JournalNVWAL.
	GroupCommit int
	// BackgroundCheckpoint moves auto-checkpointing off the commit path:
	// a dedicated goroutine runs NVWAL's incremental checkpoint (page
	// writeback and fsync with no writer lock held) whenever the log
	// passes CheckpointLimit, retrying when open snapshot readers defer
	// it, instead of piggybacking blocking checkpoints on commits.
	// Requires Concurrent and JournalNVWAL; the flash baselines keep
	// SQLite's blocking checkpoint. A background checkpoint failure is
	// latched and reported by Close.
	BackgroundCheckpoint bool
	// CommitTimeout bounds (in virtual time) how long a write may stall
	// under NVRAM-space backpressure: both the admission wait at Begin
	// when the heap is below the hard watermark, and the commit-side
	// retry when the journal reports the log full. On expiry the
	// operation fails with an error matching errors.Is(err, ErrBusy) and
	// the transaction is rolled back cleanly. 0 means no deadline —
	// stalls last until space frees or exhaustion is proven permanent
	// (ErrDegraded). JournalNVWAL only; other modes never stall.
	CommitTimeout time.Duration
	// ScrubEvery runs the background media scrubber (JournalNVWAL only):
	// after every N commits a dedicated goroutine audits the durable
	// image of the log's committed frames against their chained CRCs,
	// catching silent media rot while the volatile copies are still
	// intact. Bad frames trigger a checkpoint that rewrites the affected
	// pages from DRAM and retires the implicated NVRAM blocks into the
	// heap's quarantine. 0 disables scrubbing.
	ScrubEvery int
}

// DefaultCheckpointLimit matches SQLite's 1000-frame threshold (§2).
const DefaultCheckpointLimit = 1000

// PageSize is the database page size, SQLite's default and the paper's.
const PageSize = 4096

// Errors.
var (
	ErrTxnOpen     = errors.New("db: a write transaction is already open")
	ErrNoTxn       = errors.New("db: no open transaction")
	ErrNoTable     = errors.New("db: no such table")
	ErrTableExists = errors.New("db: table already exists")
	// errCorruptCatalog marks a page 1 whose catalog cannot be read
	// (parseCatalog).
	errCorruptCatalog = errors.New("db: corrupt catalog")
	// ErrCheckpointDeferred wraps an auto-checkpoint failure after a
	// successful commit. The transaction IS durable in the log — callers
	// must not treat it as aborted; the checkpoint will be retried after
	// a later commit or can be run explicitly.
	ErrCheckpointDeferred = errors.New("db: transaction committed, auto-checkpoint deferred")
)

// Catalog layout within page 1, after the pager's reserved header:
//
//	[64:66)  table count (uint16)
//	then per table: 24-byte zero-padded name + 4-byte root page
const (
	catalogOff   = pager.HeaderReserved
	tableNameLen = 24
	tableEntry   = tableNameLen + 4
)

// maxTables bounds the catalog to what fits in page 1.
func maxTables(pageSize int) int { return (pageSize - catalogOff - 2) / tableEntry }

// DB is one open database.
//
// Lock order (see DESIGN.md §8): writer slot → gc.mu → the journal's
// internal locks. Snapshot ReadTxs never take the writer slot; they pin
// their mark in the journal (core.NVWAL.Pin) and touch only the journal
// (read-locked) and the database file.
type DB struct {
	plat *platform.Platform
	opts Options
	name string
	tCPU *metrics.Cell // plat.Metrics' t_cpu: charged per B-tree operation

	// dbf is the database file behind the transient-retry wrapper; all
	// consumers (pager, journal backfill, checkpoint) share it.
	dbf *retryFile
	jrn pager.Journal
	// nv is the journal when it is NVWAL, nil on the flash baselines and
	// the rollback journal: snapshots, sessions, exports, background and
	// incremental checkpoints exist only on it.
	nv *core.NVWAL
	pg *pager.Pager
	// view resolves read-only page images at journal marks for every
	// versioned reader (ReadTx, CTx, ExportPages); nil unless nv is set.
	// catalog memoises the table catalog against the page-1 image those
	// readers resolve.
	view    *pager.ReadView
	catalog catalogCache
	// readers holds closed ReadTxs for BeginRead to reuse.
	readers sync.Pool

	// degradedErr latches the degraded read-only mode (ErrDegraded):
	// set at open when salvage found database-file damage, or at runtime
	// by the first permanent device error on the file.
	degradedMu  sync.Mutex
	degradedErr error

	// treeMu guards the trees cache; the *btree.Tree values themselves
	// are only used while holding the writer slot.
	treeMu sync.Mutex
	trees  map[string]*btree.Tree

	// slot is the writer slot: whoever holds the token owns the pager
	// and may run a write transaction, a catalog change, a non-snapshot
	// read, or a checkpoint. Legacy mode try-acquires it (ErrTxnOpen
	// when busy); Concurrent mode blocks.
	slot chan struct{}
	// gc is the writer queue implementing group commit.
	gc *groupCommitter
	// pressure holds the NVRAM free-space watermarks (JournalNVWAL
	// only; nil otherwise — no backpressure).
	pressure *pressureState

	// MVCC session page allocator. Sessions allocate page numbers
	// outside any pager transaction, so uniqueness is arbitrated by
	// allocTop (monotone high-water page number, kept >= the committed
	// page count) with rolled-back session pages recycled through
	// allocPool. mvccAlloc records that the pager's extension hook is
	// installed; it is only read and written under the writer slot. The
	// hook is installed lazily on the first BeginConcurrent so purely
	// legacy workloads keep exact page-count behaviour on rollback.
	allocTop  atomic.Uint32
	allocMu   sync.Mutex
	allocPool []uint32
	mvccAlloc bool
	// idle is the free list of MVCC session state (sessionState):
	// BeginConcurrent borrows an entry, a session's end hands it back.
	idleMu sync.Mutex
	idle   []*sessionState

	// Background checkpointer (Options.BackgroundCheckpoint): commits
	// past the limit and pressure stalls kick the goroutine instead of
	// checkpointing inline. A checkpoint error is latched into ckptErr.
	ckptKick  chan struct{}
	ckptQuit  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once
	ckptErrMu sync.Mutex
	ckptErr   error

	// Background media scrubber (Options.ScrubEvery): commits count
	// toward scrubSince and kick the goroutine at the threshold.
	scrubKick  chan struct{}
	scrubQuit  chan struct{}
	scrubDone  chan struct{}
	scrubSince atomic.Int64

	// health watches the background components (checkpointer, group
	// flusher, scrubber) for gray failures: progress heartbeats plus
	// latency EWMAs, on the platform's virtual clock. Admission control
	// consults it so a silently stalled checkpointer surfaces as a
	// prompt clean ErrBusy instead of an unbounded Begin stall.
	health *health.Monitor
}

// Open opens (creating if necessary) the database file name on the
// platform's flash file system, with the journal per opts. Crash
// recovery runs automatically: the journal replays its committed
// frames. When recovery finds the database file itself damaged beyond
// the log's ability to repair, Open returns BOTH a usable handle and an
// error matching errors.Is(err, ErrDegraded): the handle serves the
// last good snapshot read-only.
func Open(plat *platform.Platform, name string, opts Options) (*DB, error) {
	if opts.CheckpointLimit == 0 {
		opts.CheckpointLimit = DefaultCheckpointLimit
	}
	if opts.GroupCommit > 1 && !opts.Concurrent {
		return nil, errors.New("db: GroupCommit > 1 requires Concurrent mode")
	}
	if opts.GroupCommit > 1 && opts.Journal != JournalNVWAL {
		return nil, errors.New("db: GroupCommit > 1 requires JournalNVWAL")
	}
	if opts.BackgroundCheckpoint && !opts.Concurrent {
		return nil, errors.New("db: BackgroundCheckpoint requires Concurrent mode")
	}
	if opts.BackgroundCheckpoint && opts.Journal != JournalNVWAL {
		return nil, fmt.Errorf("db: journal mode %s does not support background checkpointing", opts.Journal)
	}
	if opts.ScrubEvery > 0 && opts.Journal != JournalNVWAL {
		return nil, errors.New("db: ScrubEvery requires JournalNVWAL")
	}
	f, err := plat.FS.OpenOrCreate(name, "db")
	if err != nil {
		return nil, err
	}
	d := &DB{
		plat:  plat,
		opts:  opts,
		name:  name,
		tCPU:  plat.Metrics.Cell(metrics.TimeCPU),
		trees: make(map[string]*btree.Tree),
		slot:  make(chan struct{}, 1),
	}
	d.health = health.NewMonitor(health.Options{
		Now:     plat.Clock.Now,
		Metrics: plat.Metrics,
	})
	d.dbf = newRetryFile(dbfile.New(f, PageSize), plat.Clock, plat.Metrics, d.degrade)
	switch opts.Journal {
	case JournalNVWAL:
		cfg := opts.NVWAL
		if cfg.Name == "" {
			cfg.Name = "nvwal:" + name
		}
		d.nv, err = core.Open(plat.Heap, d.dbf, cfg, plat.Metrics)
		d.jrn = d.nv
		d.pressure = newPressureState(plat.Heap)
	case JournalOptimizedWAL:
		d.jrn, err = wal.Open(plat.FS, name+"-wal", d.dbf,
			wal.Options{Mode: wal.ModeOptimized, InitialPrealloc: opts.WALPrealloc}, plat.Metrics)
	case JournalRollback:
		d.jrn, err = rollback.Open(plat.FS, name, d.dbf, plat.Metrics)
	default:
		d.jrn, err = wal.Open(plat.FS, name+"-wal", d.dbf, wal.Options{Mode: wal.ModeStock}, plat.Metrics)
	}
	if err != nil {
		return nil, err
	}
	d.pg, err = pager.Open(d.dbf, d.jrn)
	if err != nil {
		return nil, err
	}
	size := opts.GroupCommit
	if size < 1 {
		size = 1
	}
	d.gc = &groupCommitter{size: size, db: d}
	if d.nv != nil {
		d.view = pager.NewReadView(d.nv, d.dbf)
		d.gc.jrn = d.nv
	}
	if opts.BackgroundCheckpoint && opts.CheckpointLimit > 0 {
		d.ckptKick = make(chan struct{}, 1)
		d.ckptQuit = make(chan struct{})
		d.ckptDone = make(chan struct{})
		go d.checkpointLoop()
	}
	if opts.ScrubEvery > 0 {
		d.scrubKick = make(chan struct{}, 1)
		d.scrubQuit = make(chan struct{})
		d.scrubDone = make(chan struct{})
		go d.scrubLoop(d.nv)
	}
	// Recovery may have found the database file itself damaged — pages
	// the log cannot reconstruct. The handle still opens (the last good
	// snapshot stays readable through the log and cache), but writes are
	// refused: Open returns it together with an ErrDegraded error.
	if rep := d.Salvage(); rep != nil && rep.DBFileDamaged {
		d.degrade(fmt.Errorf("recovery found database-file damage (%s)", rep))
		return d, d.Degraded()
	}
	return d, nil
}

// acquireSlot claims the writer slot. Concurrent mode waits for it as
// long as ctx lets it: a wait ctx ends is a BusyError at the
// "writer-slot", taking nothing. The legacy single-goroutine mode only
// tries (ErrTxnOpen when busy).
func (d *DB) acquireSlot(ctx context.Context) error {
	if d.tryAcquireSlot() {
		return nil
	}
	if !d.opts.Concurrent {
		return ErrTxnOpen
	}
	select {
	case d.slot <- struct{}{}:
		return nil
	case <-ctx.Done():
		return d.newDeadline(ctx).busy("writer-slot", ctx.Err())
	}
}

// tryAcquireSlot claims the slot only if it is free.
func (d *DB) tryAcquireSlot() bool {
	select {
	case d.slot <- struct{}{}:
		return true
	default:
		return false
	}
}

func (d *DB) releaseSlot() { <-d.slot }

// readLock serializes a non-snapshot read against the writer in
// Concurrent mode. Legacy mode returns a no-op release: single-
// goroutine callers traditionally read mid-transaction (the SQL layer
// scans inside its own statements), and nothing runs concurrently.
func (d *DB) readLock() func() {
	if !d.opts.Concurrent {
		return func() {}
	}
	d.slot <- struct{}{}
	return d.releaseSlot
}

// reserved returns the B+tree per-page reserve. The early-split
// algorithm is applied for the optimized WAL (24-byte tail, §5.4) and
// for NVWAL ("We implemented the same split algorithm for NVWAL") —
// NVWAL reserves frame header + block link so two full-page frames fit
// one 8 KB user-heap block (§3.3). Stock WAL keeps SQLite's original
// layout.
func (d *DB) reserved() int {
	switch d.opts.Journal {
	case JournalWAL, JournalRollback:
		return 0
	case JournalNVWAL:
		return core.RecommendedPageReserve
	default:
		return btree.ReservedTail
	}
}

// Metrics returns the shared metrics sink.
func (d *DB) Metrics() *metrics.Counters { return d.plat.Metrics }

// Journal exposes the underlying journal (for experiment accounting).
func (d *DB) Journal() pager.Journal { return d.jrn }

// chargeCPU advances the virtual clock by the cost-model duration.
func (d *DB) chargeCPU(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.plat.Clock.Advance(dur)
	d.tCPU.Add(int64(dur))
}

// readCatalog parses the table catalog out of page 1.
func (d *DB) readCatalog() (map[string]uint32, error) {
	hdr, err := d.pg.Get(1)
	if err != nil {
		return nil, err
	}
	return parseCatalog(hdr)
}

// tree returns the B+tree handle for a table. Callers hold the writer
// slot (or run in the legacy single-goroutine mode).
func (d *DB) tree(table string) (*btree.Tree, error) {
	d.treeMu.Lock()
	t, ok := d.trees[table]
	d.treeMu.Unlock()
	if ok {
		return t, nil
	}
	cat, err := d.readCatalog()
	if err != nil {
		return nil, err
	}
	root, ok := cat[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	t = btree.New(d.pg, root, btree.Config{Reserved: d.reserved()})
	d.treeMu.Lock()
	d.trees[table] = t
	d.treeMu.Unlock()
	return t, nil
}

func (d *DB) cacheTree(table string, t *btree.Tree) {
	d.treeMu.Lock()
	d.trees[table] = t
	d.treeMu.Unlock()
}

func (d *DB) uncacheTree(table string) {
	d.treeMu.Lock()
	delete(d.trees, table)
	d.treeMu.Unlock()
}

// CreateTable creates a table in its own transaction. It cannot run
// inside an open write transaction (legacy mode reports ErrTxnOpen;
// Concurrent mode waits for the writer slot).
func (d *DB) CreateTable(table string) error {
	if err := d.enterWriter(context.Background()); err != nil {
		return err
	}
	if len(table) == 0 || len(table) > tableNameLen {
		d.releaseSlot()
		return fmt.Errorf("db: table name must be 1..%d bytes", tableNameLen)
	}
	cat, err := d.readCatalog()
	if err != nil {
		d.releaseSlot()
		return err
	}
	if _, ok := cat[table]; ok {
		d.releaseSlot()
		return fmt.Errorf("%w: %q", ErrTableExists, table)
	}
	if len(cat) >= maxTables(PageSize) {
		d.releaseSlot()
		return errors.New("db: catalog full")
	}
	d.pg.Begin()
	t, err := btree.Create(d.pg, btree.Config{Reserved: d.reserved()})
	if err != nil {
		d.pg.Rollback()
		d.releaseSlot()
		return err
	}
	if _, err := d.pg.Get(1); err != nil {
		d.pg.Rollback()
		d.releaseSlot()
		return err
	}
	hdr := d.pg.MarkDirty(1)
	n := len(cat)
	off := catalogOff + 2 + n*tableEntry
	copy(hdr[off:off+tableNameLen], make([]byte, tableNameLen))
	copy(hdr[off:], table)
	binary.LittleEndian.PutUint32(hdr[off+tableNameLen:], t.Root())
	binary.LittleEndian.PutUint16(hdr[catalogOff:], uint16(n+1))
	d.chargeCPU(d.opts.CPU.TxnFixed)
	d.cacheTree(table, t)
	if _, err := d.commitHeldTxn(d.newDeadline(context.Background())); err != nil { // releases the slot
		d.uncacheTree(table)
		return err
	}
	return nil
}

// DropTable deletes a table in its own transaction, releasing all of
// its pages to the freelist. It cannot run inside an open write
// transaction.
func (d *DB) DropTable(table string) error {
	if err := d.enterWriter(context.Background()); err != nil {
		return err
	}
	cat, err := d.readCatalog()
	if err != nil {
		d.releaseSlot()
		return err
	}
	if _, ok := cat[table]; !ok {
		d.releaseSlot()
		return fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	t, err := d.tree(table)
	if err != nil {
		d.releaseSlot()
		return err
	}
	d.pg.Begin()
	if err := t.Drop(); err != nil {
		d.pg.Rollback()
		d.releaseSlot()
		return err
	}
	// Remove the catalog entry, compacting the table list.
	if _, err := d.pg.Get(1); err != nil {
		d.pg.Rollback()
		d.releaseSlot()
		return err
	}
	hdr := d.pg.MarkDirty(1)
	n := len(cat)
	for i := range n {
		if name, _ := catalogSlot(hdr, i); name != table {
			continue
		}
		off := catalogOff + 2 + i*tableEntry
		last := catalogOff + 2 + (n-1)*tableEntry
		copy(hdr[off:], hdr[off+tableEntry:last+tableEntry])
		for j := last; j < last+tableEntry; j++ {
			hdr[j] = 0
		}
		binary.LittleEndian.PutUint16(hdr[catalogOff:], uint16(n-1))
		break
	}
	d.chargeCPU(d.opts.CPU.TxnFixed)
	d.uncacheTree(table)
	_, err = d.commitHeldTxn(d.newDeadline(context.Background())) // releases the slot
	return err
}

// Tables lists the catalog in sorted name order.
func (d *DB) Tables() ([]string, error) {
	defer d.readLock()()
	cat, err := d.readCatalog()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(cat))
	for name := range cat {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// HasTable reports whether a table exists.
func (d *DB) HasTable(table string) bool {
	defer d.readLock()()
	cat, err := d.readCatalog()
	if err != nil {
		return false
	}
	_, ok := cat[table]
	return ok
}

// Tx is one write transaction. SQLite allows a single writer at a time
// (§4.1), which Begin enforces: the transaction holds the writer slot
// from Begin until Commit or Rollback.
type Tx struct {
	db   *DB
	ctx  context.Context // from BeginCtx; bounds Commit's stall too
	done bool
	seq  uint64 // commit sequence number, set by a successful Commit
	// 2PC state (see twopc.go): a prepared transaction keeps its writer
	// slot and pager transaction until CompletePrepared/AbortPrepared.
	prepared bool
	gtx      uint64        // global transaction id from Prepare
	frames   []pager.Frame // the prepared frame set, for the seq stamp at CompletePrepared
}

// Seq returns the transaction's commit sequence number: 1-based,
// strictly increasing in journal-application order across all writers.
// Valid only after Commit returned nil; a crash-consistency oracle uses
// it to order acknowledged transactions without observing the journal.
func (tx *Tx) Seq() uint64 { return tx.seq }

// Begin opens a write transaction. In Concurrent mode it blocks until
// the current writer finishes; in legacy mode it returns ErrTxnOpen.
// Under NVRAM-space pressure Begin may stall at the hard watermark
// (see Options.CommitTimeout); BeginCtx bounds that stall with a
// context.
func (d *DB) Begin() (*Tx, error) {
	if err := d.beginTx(background); err != nil {
		return nil, err
	}
	return &Tx{db: d, ctx: background}, nil
}

// background is Begin's context, a variable so Begin stays inlinable.
var background = context.Background()

// BeginCtx is Begin with a context bounding its waits: if the heap is
// below the hard watermark and ctx is cancelled before checkpointing
// frees space, or ctx ends while Concurrent mode waits for the writer
// slot, BeginCtx fails with an error matching errors.Is(err, ErrBusy).
// The context also bounds the commit-side stall of this transaction's
// Commit (CommitCtx overrides it).
func (d *DB) BeginCtx(ctx context.Context) (*Tx, error) {
	if err := d.beginTx(ctx); err != nil {
		return nil, err
	}
	return &Tx{db: d, ctx: ctx}, nil
}

// beginTx is Begin's work: it admits the writer, takes the slot and opens
// the pager transaction. Begin and BeginCtx stay small enough to inline,
// so the handle they return is built in the caller's frame and stays on
// its stack whenever the caller keeps it local.
func (d *DB) beginTx(ctx context.Context) error {
	if err := d.enterWriter(ctx); err != nil {
		return err
	}
	d.pg.Begin()
	return nil
}

// enterWriter admits a writer and returns with the writer slot held.
// Admission runs before any lock is taken: a stalled NEW writer must not
// block the checkpointer, readers, or in-flight writers.
func (d *DB) enterWriter(ctx context.Context) error {
	if err := d.admitWriter(ctx); err != nil {
		return err
	}
	return d.claimSlot(ctx)
}

// claimSlot takes the writer slot (waiting up to ctx), refusing it once a
// group flush has failed.
func (d *DB) claimSlot(ctx context.Context) error {
	if err := d.acquireSlot(ctx); err != nil {
		return err
	}
	if err := d.gc.bail(); err != nil {
		d.releaseSlot()
		return err
	}
	return nil
}

func (tx *Tx) guard() error {
	if tx.done {
		return ErrNoTxn
	}
	return nil
}

// Insert stores key/value in table, replacing an existing value.
func (tx *Tx) Insert(table string, key, value []byte) error {
	if err := tx.guard(); err != nil {
		return err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return err
	}
	tx.db.chargeCPU(tx.db.opts.CPU.PerOp)
	return t.Put(key, value)
}

// Update rewrites an existing record, reporting whether it existed.
func (tx *Tx) Update(table string, key, value []byte) (bool, error) {
	if err := tx.guard(); err != nil {
		return false, err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return false, err
	}
	tx.db.chargeCPU(tx.db.opts.CPU.PerOp)
	return t.Update(key, value)
}

// Delete removes a record, reporting whether it existed.
func (tx *Tx) Delete(table string, key []byte) (bool, error) {
	if err := tx.guard(); err != nil {
		return false, err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return false, err
	}
	tx.db.chargeCPU(tx.db.opts.CPU.PerOp)
	return t.Delete(key)
}

// Get reads a record, seeing the transaction's own writes. The value is
// a copy the caller owns.
func (tx *Tx) Get(table string, key []byte) ([]byte, bool, error) {
	if err := tx.guard(); err != nil {
		return nil, false, err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return nil, false, err
	}
	return t.Get(key)
}

// Scan visits table's records (including the transaction's own writes)
// in ascending key order until fn returns false. key and value are valid
// until fn returns; copy them to keep them.
func (tx *Tx) Scan(table string, fn func(key, value []byte) bool) error {
	if err := tx.guard(); err != nil {
		return err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return err
	}
	return t.Scan(fn)
}

// ScanRange visits records with start <= key < end (nil end = no upper
// bound), including the transaction's own writes. key and value are
// valid until fn returns; copy them to keep them.
func (tx *Tx) ScanRange(table string, start, end []byte, fn func(key, value []byte) bool) error {
	if err := tx.guard(); err != nil {
		return err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return err
	}
	return t.ScanRange(start, end, fn)
}

// ScanPrefix visits records whose key begins with prefix, including the
// transaction's own writes. key and value are valid until fn returns;
// copy them to keep them.
func (tx *Tx) ScanPrefix(table string, prefix []byte, fn func(key, value []byte) bool) error {
	if err := tx.guard(); err != nil {
		return err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return err
	}
	return t.ScanPrefix(prefix, fn)
}

// Count returns the number of records in table as the transaction sees
// it.
func (tx *Tx) Count(table string) (int, error) {
	if err := tx.guard(); err != nil {
		return 0, err
	}
	t, err := tx.db.tree(table)
	if err != nil {
		return 0, err
	}
	return t.Count()
}

// Commit durably commits the transaction through the journal (solo, or
// batched with concurrent committers when group commit is on), then
// auto-checkpoints if the log passed the frame limit. A journal failure
// rolls the transaction back — its dirty pages can never leak into the
// next transaction. An auto-checkpoint failure after a successful
// commit is reported wrapped in ErrCheckpointDeferred: the transaction
// IS durable. When the NVRAM heap is full, Commit stalls while
// checkpointing frees space; Options.CommitTimeout (or the context of
// BeginCtx/CommitCtx) bounds the stall with a clean ErrBusy rollback.
func (tx *Tx) Commit() error {
	ctx := tx.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return tx.CommitCtx(ctx)
}

// CommitCtx is Commit with an explicit context bounding the
// backpressure stall (overriding the one captured at BeginCtx): the
// durable commit, then the auto-checkpoint.
func (tx *Tx) CommitCtx(ctx context.Context) error {
	if err := tx.CommitDurableCtx(ctx); err != nil {
		return err
	}
	return tx.db.AutoCheckpoint(false)
}

// CommitDurableCtx is the first half of CommitCtx: on a nil return the
// transaction is durable in the journal and has its Seq, and no
// auto-checkpoint has run. The caller owes the database an AutoCheckpoint
// — after whatever it must do first with the commit, such as shipping it
// and collecting acknowledgements (repl.Primary).
func (tx *Tx) CommitDurableCtx(ctx context.Context) error {
	if err := tx.guard(); err != nil {
		return err
	}
	if tx.prepared {
		return ErrPrepared
	}
	tx.done = true
	d := tx.db
	d.chargeCPU(d.opts.CPU.TxnFixed)
	seq, err := d.commitHeldTxn(d.newDeadline(ctx)) // releases the slot
	if err != nil {
		return err
	}
	tx.seq = seq
	d.maybeKickScrub()
	return nil
}

// Rollback abandons the transaction, restoring all pages. On a
// prepared transaction it aborts the prepare first (the journal holds
// provisional frames that must be unwound before the slot is freed).
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	if tx.prepared {
		_ = tx.AbortPrepared()
		return
	}
	tx.done = true
	tx.db.pg.Rollback()
	tx.db.releaseSlot()
}

// commitHeldTxn durably commits the pager's open write transaction and
// returns its commit sequence number (1-based, in journal-application
// order). Called with the writer slot held, which it releases. The
// transaction never joins the group queue: it first flushes the sessions
// already queued — their images are in the pager cache it built on, and
// their seqs are lower — then commits alone while the pager transaction
// is still open, so a journal failure (a backpressure deadline
// included) rolls it back cleanly. The deadline bounds any NVRAM-space
// stall the flush runs into.
func (d *DB) commitHeldTxn(dl deadline) (uint64, error) {
	fail := func(err error) (uint64, error) {
		d.pg.Rollback()
		d.releaseSlot()
		return 0, err
	}
	frames, err := d.pg.PrepareCommit()
	if err != nil {
		return fail(err)
	}
	if err := d.gc.flushPending(); err != nil {
		return fail(err)
	}
	// The stamp is ordered: no other commit can touch the journal until
	// this writer releases the slot (the queue cannot grow either —
	// enqueueing requires the slot). It must precede the journal write: an
	// MVCC session snapshotting between the two would otherwise miss both
	// the frames (not yet in the log) and the conflict (vector not yet
	// bumped) — a lost update. A failed flush leaves a stale bump behind,
	// which can only cause a spurious ErrConflict, never a lost update.
	d.gc.mu.Lock()
	seq := d.gc.stamp(frames)
	d.gc.mu.Unlock()
	if err := d.flushSolo(dl, frames); err != nil {
		return fail(fmt.Errorf("pager: commit failed, transaction rolled back: %w", err))
	}
	d.pg.FinishCommit()
	d.releaseSlot()
	return seq, nil
}

// AutoCheckpoint is the second half of CommitCtx: the post-commit
// checkpoint, run when the log passed the frame limit. With
// BackgroundCheckpoint it only kicks the checkpointer goroutine — the
// commit path never carries checkpoint I/O. Inline, it is best-effort: a
// busy writer slot or an open snapshot defers it silently to a later
// commit (the SQLite behaviour: checkpointing cannot pass a reader's
// mark); a real checkpoint failure is counted and reported wrapped in
// ErrCheckpointDeferred, and the next due commit retries the round.
//
// freezeOnly stops a due inline round after phase A (core's
// FreezeCheckpoint; NVWAL journals only, a no-op otherwise): the
// generation is frozen and its watermark announced to exporters, and the
// write-back is left to the next call without freezeOnly. The conditions
// are the same for both, so what is frozen is exactly a round that would
// have run.
func (d *DB) AutoCheckpoint(freezeOnly bool) error {
	lim := d.opts.CheckpointLimit
	if lim <= 0 || d.jrn.FramesSinceCheckpoint() < lim {
		return nil
	}
	if d.Degraded() != nil {
		// Checkpointing writes the database file, which is exactly what
		// degraded mode cannot do; the commit itself is durable in the log.
		return nil
	}
	if d.ckptKick != nil {
		if !freezeOnly {
			d.kickCheckpoint()
		}
		return nil
	}
	if !d.tryAcquireSlot() {
		return nil
	}
	defer d.releaseSlot()
	if err := d.checkpointLocked(freezeOnly); err != nil {
		if errors.Is(err, ErrBusySnapshot) {
			return nil
		}
		d.plat.Metrics.Inc(metrics.CheckpointErrors, 1)
		return fmt.Errorf("%w: %w", ErrCheckpointDeferred, err)
	}
	return nil
}

// kickCheckpoint nudges the background checkpointer (no-op when the
// kick buffer already holds a pending nudge, or in inline mode, where
// ckptKick is nil).
func (d *DB) kickCheckpoint() {
	select {
	case d.ckptKick <- struct{}{}:
	default:
	}
}

// checkpointLoop is the background checkpointer: each kick drains the
// log below the frame limit without ever taking the writer slot, so
// commits overlap the checkpoint's page writeback and fsync. A round
// deferred by an open reader waits for the next kick, from the next
// commit past the limit or the next pressure stall; a real failure is
// latched for Close to report. Space pressure lowers the bar: below the
// soft watermark any non-empty log is drained, so stalled writers get
// pages back before the frame limit would have triggered.
func (d *DB) checkpointLoop() {
	defer close(d.ckptDone)
	tr := d.health.Tracker("checkpointer")
	needsRound := func() bool {
		frames := d.jrn.FramesSinceCheckpoint()
		if frames >= d.opts.CheckpointLimit {
			return true
		}
		return frames > 0 && d.pressure != nil && d.pressure.avail() < d.pressure.soft
	}
	for {
		select {
		case <-d.ckptQuit:
			return
		case <-d.ckptKick:
		}
		// Armed while rounds are pending: silence past the health budget
		// in this window means the checkpointer is wedged inside a round
		// (a gray-slow fsync, a degraded device), and admission control
		// may escalate instead of stalling writers forever.
		if needsRound() {
			tr.Arm()
		}
		for needsRound() {
			if d.Degraded() != nil {
				break
			}
			start := d.plat.Clock.Now()
			err := d.nv.Checkpoint()
			if err == nil {
				tr.Observe(d.plat.Clock.Now() - start)
				tr.Beat()
				continue
			}
			if errors.Is(err, pager.ErrCheckpointPending) {
				break
			}
			d.ckptErrMu.Lock()
			if d.ckptErr == nil {
				d.ckptErr = err
			}
			d.ckptErrMu.Unlock()
			tr.Disarm()
			return
		}
		tr.Disarm()
	}
}

// Get reads a record outside any transaction. In Concurrent mode it
// waits for the writer slot; in legacy mode an open write transaction
// is reported as ErrTxnOpen. The value is a copy the caller owns.
func (d *DB) Get(table string, key []byte) ([]byte, bool, error) {
	return d.AppendGet(nil, table, key)
}

// AppendGet is Get appending the value to dst (btree.Tree.AppendGet): a
// caller that only passes the value on, such as a server building its
// response, copies it once. A missing key or an error returns dst as
// passed.
func (d *DB) AppendGet(dst []byte, table string, key []byte) ([]byte, bool, error) {
	if err := d.acquireSlot(context.Background()); err != nil {
		return dst, false, err
	}
	defer d.releaseSlot()
	t, err := d.tree(table)
	if err != nil {
		return dst, false, err
	}
	return t.AppendGet(dst, key)
}

// Scan visits table's records in ascending key order until fn returns
// false. key and value are valid until fn returns; copy them to keep
// them. Inside an open transaction use Tx.Scan (legacy single-goroutine
// code may keep calling this mid-transaction; Concurrent mode serializes
// it against the writer).
func (d *DB) Scan(table string, fn func(key, value []byte) bool) error {
	defer d.readLock()()
	t, err := d.tree(table)
	if err != nil {
		return err
	}
	return t.Scan(fn)
}

// ScanRange visits records with start <= key < end (nil end = no upper
// bound) in ascending order until fn returns false. key and value are
// valid until fn returns; copy them to keep them.
func (d *DB) ScanRange(table string, start, end []byte, fn func(key, value []byte) bool) error {
	defer d.readLock()()
	t, err := d.tree(table)
	if err != nil {
		return err
	}
	return t.ScanRange(start, end, fn)
}

// ScanPrefix visits records whose key begins with prefix, in ascending
// order until fn returns false. key and value are valid until fn
// returns; copy them to keep them.
func (d *DB) ScanPrefix(table string, prefix []byte, fn func(key, value []byte) bool) error {
	defer d.readLock()()
	t, err := d.tree(table)
	if err != nil {
		return err
	}
	return t.ScanPrefix(prefix, fn)
}

// Count returns the number of records in table.
func (d *DB) Count(table string) (int, error) {
	defer d.readLock()()
	t, err := d.tree(table)
	if err != nil {
		return 0, err
	}
	return t.Count()
}

// Checkpoint flushes the log into the database file and truncates it.
func (d *DB) Checkpoint() error {
	if err := d.Degraded(); err != nil {
		return err
	}
	if err := d.acquireSlot(context.Background()); err != nil {
		return err
	}
	defer d.releaseSlot()
	return d.checkpointLocked(false)
}

// checkpointLocked checkpoints with the writer slot held — with
// freezeOnly, only as far as freezing an NVWAL round's generation (other
// journals have no such stage: nothing is done). An NVWAL round that a
// reader's pinned mark refuses is ErrBusySnapshot; the other journals
// have no readers to protect and checkpoint in one blocking call.
func (d *DB) checkpointLocked(freezeOnly bool) error {
	if freezeOnly && d.nv == nil {
		return nil
	}
	// Flush any group still waiting in the queue: its transactions'
	// pages live only in the pager cache and the queue, so the journal
	// must absorb them before checkpointing. The writer slot is held, so
	// no new request can enqueue concurrently.
	if err := d.gc.flushPending(); err != nil {
		return err
	}
	sw := d.plat.Clock.Now()
	var err error
	if freezeOnly {
		err = d.nv.FreezeCheckpoint()
	} else {
		err = d.jrn.Checkpoint()
	}
	if errors.Is(err, pager.ErrCheckpointPending) {
		return ErrBusySnapshot
	}
	if err != nil {
		return err
	}
	d.plat.Metrics.AddTime(metrics.TimeCheckpnt, d.plat.Clock.Now()-sw)
	return nil
}

// Close stops the background checkpointer and scrubber, checkpoints,
// and releases the database. SQLite checkpoints when the last session
// closes (§2). A latched background-checkpoint failure is reported
// here. In degraded mode the final checkpoint is skipped — the database
// file cannot absorb it — and Close reports the degraded error; the
// committed log content survives in NVRAM for the next recovery.
func (d *DB) Close() error {
	d.stopBackground()
	if err := d.Degraded(); err != nil {
		return err
	}
	err := d.Checkpoint()
	d.ckptErrMu.Lock()
	latched := d.ckptErr
	d.ckptErrMu.Unlock()
	if err == nil && latched != nil {
		err = fmt.Errorf("db: background checkpoint failed: %w", latched)
	}
	return err
}

// Abandon stops the background checkpointer and scrubber goroutines
// without checkpointing or touching the journal. It is the right way to discard
// a DB whose underlying platform has crashed (PowerFail): Close would
// checkpoint into a failed device, while letting the handle leak would
// leave the checkpointer goroutine alive. Safe to call repeatedly — at
// most once effective; the handle must not be used afterwards.
func (d *DB) Abandon() {
	d.stopBackground()
}

// Check verifies the structural invariants of every table's tree.
func (d *DB) Check() error {
	defer d.readLock()()
	cat, err := d.readCatalog()
	if err != nil {
		return err
	}
	for name := range cat {
		t, err := d.tree(name)
		if err != nil {
			return err
		}
		if err := t.Check(); err != nil {
			return fmt.Errorf("table %q: %w", name, err)
		}
	}
	return nil
}
