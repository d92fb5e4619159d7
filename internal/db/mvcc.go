package db

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/simclock"
)

// ErrConflict is returned by CTx.Commit when first-committer-wins
// validation rejects the transaction: another transaction committed a
// write to one of this session's written pages after the session's
// snapshot. The session is rolled back cleanly (its page numbers are
// recycled, nothing reached the journal) and the whole transaction is
// safe to retry from a fresh BeginConcurrent.
var ErrConflict = errors.New("db: transaction conflicts with a concurrent commit")

// CTx is an MVCC write transaction: a writer session with its own
// snapshot, its own page working set, and its own per-writer NVRAM log
// stream. Unlike Tx, concurrent CTxs build their changes fully in
// parallel — no writer slot is held between Begin and Commit — and
// conflicts surface at commit as a retryable ErrConflict under
// page-level first-committer-wins. One CTx must not be shared between
// goroutines.
//
// The handle is the caller's for good (Seq stays readable after Commit);
// the working state behind it — page table, log stream, commit request,
// scratch — is borrowed from the DB at Begin and handed back when the
// session ends, after which every method returns ErrNoTxn.
type CTx struct {
	d      *DB
	ctx    context.Context
	store  sessionStore
	tables tables
	// clock, when set via SetClock, receives the session's CPU charges
	// instead of the platform clock — a simclock lane modeling that
	// independent writers burn CPU on independent cores.
	clock *simclock.Clock
	// snapSeq is gc.nextSeq at snapshot time: any versions-vector entry
	// above it is a conflicting later commit.
	snapSeq  uint64
	markHeld bool
	done     bool
	seq      uint64
}

// sessionStore is a CTx's private btree.PageStore, under the pager's
// rule: a page the session reads is the image its snapshot resolves (snap:
// the images of commits that were queued but unflushed at snapshot time,
// then the journal at the snapshot mark, then the database file), used as
// it is — shared with the log and every other reader, or built for this
// session alone — and never written. The session's first MarkDirty of a
// page makes its one private copy; the loaded image stays the page's
// committed pre-image, the diff base at commit. A session that reads many
// pages and writes few copies only the ones it writes. Page numbers for
// fresh pages come from the DB-wide arbiter (allocTop / allocPool), never
// from the shared freelist — popping the freelist requires the writer
// slot the session deliberately does not hold.
type sessionStore struct {
	d    *DB
	snap snapshotStore
	// The borrowed working state; nil once the session has ended, so a
	// finished handle cannot reach the next borrower's pages.
	*sessionState
}

// sessionState is what a session borrows from its DB for its lifetime
// and hands back in finish: all of it is rebuilt by every transaction
// otherwise, and none of it outlives the session's commit. The next
// borrower finds it empty.
type sessionState struct {
	// pages is the session's page table: every page it has loaded,
	// written, allocated or freed.
	pages map[uint32]sessionPage
	// freshFree recycles pages allocated and freed inside this session.
	freshFree []uint32
	// allocs are the page numbers taken from the shared arbiter; on
	// rollback or conflict they return to the pool for other sessions.
	allocs []uint32
	// stream is the session's per-writer NVRAM log stream, which its
	// commit stages every written page into. It keeps its tag from
	// session to session.
	stream *core.Stream
	// writes and frames are CommitCtx's scratch; req is the session's
	// request in the group queue, through which finish also retires the
	// session's registration.
	writes []sessionWrite
	frames []pager.Frame
	req    commitReq
}

// maxIdleSessions bounds the DB's free list of session state: more
// sessions than this finishing at once make new state next time.
const maxIdleSessions = 64

// maxReusedPages bounds the page table a finished session may hand back.
// A Go map never shrinks, so after one bulk session clearing it would
// cost that session's size on every session that follows; a session
// above the bound touched enough pages that the state its successor
// makes anew is noise (the rule core's seenScratch applies to its group
// page set).
const maxReusedPages = 256

// borrowSession takes session state from the free list, or makes it with
// a fresh log stream. Caller holds the slot.
func (d *DB) borrowSession() *sessionState {
	var st *sessionState
	d.idleMu.Lock()
	if n := len(d.idle); n > 0 {
		st = d.idle[n-1]
		d.idle[n-1] = nil
		d.idle = d.idle[:n-1]
	}
	d.idleMu.Unlock()
	if st == nil {
		st = &sessionState{
			pages:  make(map[uint32]sessionPage),
			stream: d.nv.NewStream(),
		}
	}
	return st
}

// returnSession empties st and puts it on the free list. It holds no
// page image afterwards: the log owns what the session committed, and
// an idle entry must not keep anything else alive.
func (d *DB) returnSession(st *sessionState) {
	if len(st.pages) > maxReusedPages {
		return
	}
	clear(st.pages)
	st.freshFree, st.allocs = st.freshFree[:0], st.allocs[:0]
	st.stream.Reset()
	clear(st.writes[:cap(st.writes)])
	clear(st.frames[:cap(st.frames)])
	st.writes, st.frames = st.writes[:0], st.frames[:0]
	d.idleMu.Lock()
	if len(d.idle) < maxIdleSessions {
		d.idle = append(d.idle, st)
	}
	d.idleMu.Unlock()
}

// sessionPage is one page of a session's working set.
type sessionPage struct {
	base []byte // the image the page was loaded as (read-only); nil for a fresh page
	own  []byte // the session's own image, once it writes or allocates the page
	// dirty: the commit logs own. fresh: allocated by this session, never
	// committed. freed: a committed page this session freed.
	dirty, fresh, freed bool
}

func (st *sessionStore) PageSize() int { return st.snap.PageSize() }

func (st *sessionStore) Get(pgno uint32) ([]byte, error) {
	if pgno == 0 {
		return nil, fmt.Errorf("db: page numbers start at 1")
	}
	if e, ok := st.pages[pgno]; ok {
		if e.own != nil {
			return e.own, nil
		}
		return e.base, nil
	}
	img, _, err := st.snap.load(pgno)
	if err != nil {
		return nil, err
	}
	st.pages[pgno] = sessionPage{base: img}
	return img, nil
}

func (st *sessionStore) Allocate() (uint32, []byte, error) {
	var pgno uint32
	if n := len(st.freshFree); n > 0 {
		pgno = st.freshFree[n-1]
		st.freshFree = st.freshFree[:n-1]
	} else if p := st.d.poolGet(); p != 0 {
		pgno = p
		st.allocs = append(st.allocs, pgno)
	} else {
		pgno = st.d.allocTop.Add(1)
		st.allocs = append(st.allocs, pgno)
	}
	e := st.pages[pgno]
	if e.own != nil {
		clear(e.own)
	} else {
		e.own = pager.NewImage(st.d.nv, nil, st.PageSize())
	}
	e.dirty, e.fresh = true, true
	st.pages[pgno] = e
	return pgno, e.own, nil
}

func (st *sessionStore) Free(pgno uint32) error {
	if pgno <= 1 {
		return fmt.Errorf("db: cannot free page %d", pgno)
	}
	if e := st.pages[pgno]; e.fresh {
		// Never committed: recycle inside the session, no trace outside.
		st.freshFree = append(st.freshFree, pgno)
		e.dirty = false
		st.pages[pgno] = e
		return nil
	}
	// Committed page: freeing it is a write (the commit chains it onto
	// the shared freelist, as a copy of its loaded image), so make sure
	// that image is loaded and claim the page in the write set.
	if _, err := st.Get(pgno); err != nil {
		return err
	}
	e := st.pages[pgno]
	e.dirty, e.freed = false, true
	st.pages[pgno] = e
	return nil
}

// MarkDirty copies a loaded page the first time the session writes it —
// the one copy a session makes of a committed page, into an image the
// log recycles when it has one.
func (st *sessionStore) MarkDirty(pgno uint32) []byte {
	e, loaded := st.pages[pgno]
	if !loaded {
		panic(fmt.Sprintf("db: MarkDirty of page %d, which the session never read", pgno))
	}
	if e.own == nil {
		e.own = pager.NewImage(st.d.nv, e.base, st.PageSize())
	}
	e.dirty = true
	st.pages[pgno] = e
	return e.own
}

// nextPageNumber is the pager's extension arbiter (pager.SetAllocBase):
// it hands out page numbers above both the committed page count and
// everything MVCC sessions have taken, so a legacy transaction
// extending the file can never collide with an in-flight session.
func (d *DB) nextPageNumber(pageCount uint32) uint32 {
	for {
		top := d.allocTop.Load()
		n := pageCount
		if top > n {
			n = top
		}
		if d.allocTop.CompareAndSwap(top, n+1) {
			return n + 1
		}
	}
}

// raiseAllocTop lifts the arbiter to at least n (monotone).
func (d *DB) raiseAllocTop(n uint32) {
	for {
		top := d.allocTop.Load()
		if top >= n || d.allocTop.CompareAndSwap(top, n) {
			return
		}
	}
}

func (d *DB) poolGet() uint32 {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	if n := len(d.allocPool); n > 0 {
		p := d.allocPool[n-1]
		d.allocPool = d.allocPool[:n-1]
		return p
	}
	return 0
}

func (d *DB) poolPut(pgnos []uint32) {
	if len(pgnos) == 0 {
		return
	}
	d.allocMu.Lock()
	d.allocPool = append(d.allocPool, pgnos...)
	d.allocMu.Unlock()
}

// BeginConcurrent opens an MVCC write transaction. Requires
// Options.Concurrent and JournalNVWAL: a session commits by staging its
// pages into an NVRAM log stream.
func (d *DB) BeginConcurrent() (*CTx, error) {
	return d.BeginConcurrentCtx(context.Background())
}

// BeginConcurrentCtx is BeginConcurrent with a context bounding the
// admission stall under NVRAM-space backpressure (and, unless
// CommitCtx overrides it, the commit-side stall too).
//
// The snapshot (seq, pinned mark, overlay) is taken under gc.mu, where it
// is consistent with the queue; pinning takes the journal's lock inside
// gc.mu, the order a flush takes them in. The slot is held only across
// Begin itself — never while the session runs — which keeps solo commits
// (journal written outside gc.mu) from racing the snapshot.
func (d *DB) BeginConcurrentCtx(ctx context.Context) (*CTx, error) {
	if !d.opts.Concurrent {
		return nil, errors.New("db: BeginConcurrent requires Options.Concurrent")
	}
	if d.opts.Journal != JournalNVWAL {
		return nil, fmt.Errorf("db: BeginConcurrent requires JournalNVWAL, not %s", d.opts.Journal)
	}
	if err := d.admitWriter(ctx); err != nil {
		return nil, err
	}
	// Registered before it contends for the slot, so a group waiting for
	// its peers knows this session is on its way.
	d.gc.register()
	if err := d.claimSlot(ctx); err != nil {
		d.gc.unregister(nil)
		return nil, err
	}
	// Arm the shared page-number arbiter (lazily, so purely legacy
	// workloads keep exact page-count behaviour on rollback) and lift
	// it over the committed page count.
	if !d.mvccAlloc {
		d.pg.SetAllocBase(d.nextPageNumber)
		d.mvccAlloc = true
	}
	pc, err := d.pg.PageCount()
	if err != nil {
		d.releaseSlot()
		d.gc.unregister(nil)
		return nil, err
	}
	d.raiseAllocTop(pc)

	gc := d.gc
	gc.mu.Lock()
	snapSeq := gc.nextSeq
	mark := d.nv.Pin()
	var overlay map[uint32][]byte
	for _, r := range gc.queue {
		for _, fr := range r.frames {
			if overlay == nil {
				overlay = make(map[uint32][]byte)
			}
			overlay[fr.Pgno] = fr.Data
		}
	}
	gc.mu.Unlock()

	st := d.borrowSession()
	d.releaseSlot()

	return &CTx{
		d:   d,
		ctx: ctx,
		store: sessionStore{
			d:            d,
			snap:         snapshotStore{MarkStore: pager.MarkStore{View: d.view, Mark: mark}, overlay: overlay},
			sessionState: st,
		},
		snapSeq:  snapSeq,
		markHeld: true,
	}, nil
}

// SetClock redirects the session's CPU cost charges to a dedicated
// simclock lane (benchmarks model independent writers as independent
// cores this way). Must be called before any operation.
func (tx *CTx) SetClock(c *simclock.Clock) { tx.clock = c }

// Seq returns the commit sequence number (0 until Commit succeeds, and
// for read-only sessions, which consume no seq).
func (tx *CTx) Seq() uint64 { return tx.seq }

func (tx *CTx) charge(dur time.Duration) {
	if dur <= 0 {
		return
	}
	if tx.clock != nil {
		tx.clock.Advance(dur)
		tx.d.tCPU.Add(int64(dur))
		return
	}
	tx.d.chargeCPU(dur)
}

func (tx *CTx) guard() error {
	if tx.done {
		return ErrNoTxn
	}
	return nil
}

// tree resolves the root through the snapshot's shared page-1 image, not
// a private copy: a session that only reads the catalog never needs
// page 1 in its working set.
func (tx *CTx) tree(table string) (*btree.Tree, error) {
	return tx.tables.tree(tx.d, &tx.store.snap, &tx.store, table)
}

// Insert stores key/value in table, replacing an existing value.
func (tx *CTx) Insert(table string, key, value []byte) error {
	if err := tx.guard(); err != nil {
		return err
	}
	t, err := tx.tree(table)
	if err != nil {
		return err
	}
	tx.charge(tx.d.opts.CPU.PerOp)
	return t.Put(key, value)
}

// Update rewrites an existing record, reporting whether it existed.
func (tx *CTx) Update(table string, key, value []byte) (bool, error) {
	if err := tx.guard(); err != nil {
		return false, err
	}
	t, err := tx.tree(table)
	if err != nil {
		return false, err
	}
	tx.charge(tx.d.opts.CPU.PerOp)
	return t.Update(key, value)
}

// Delete removes a record, reporting whether it existed.
func (tx *CTx) Delete(table string, key []byte) (bool, error) {
	if err := tx.guard(); err != nil {
		return false, err
	}
	t, err := tx.tree(table)
	if err != nil {
		return false, err
	}
	tx.charge(tx.d.opts.CPU.PerOp)
	return t.Delete(key)
}

// Get reads a record at the snapshot, seeing the session's own writes.
// The value is a copy the caller owns.
func (tx *CTx) Get(table string, key []byte) ([]byte, bool, error) {
	if err := tx.guard(); err != nil {
		return nil, false, err
	}
	t, err := tx.tree(table)
	if err != nil {
		return nil, false, err
	}
	return t.Get(key)
}

// Scan visits table's records at the snapshot (including the session's
// own writes) in ascending key order until fn returns false. key and
// value are valid until fn returns; copy them to keep them.
func (tx *CTx) Scan(table string, fn func(key, value []byte) bool) error {
	if err := tx.guard(); err != nil {
		return err
	}
	t, err := tx.tree(table)
	if err != nil {
		return err
	}
	return t.Scan(fn)
}

// releaseMark drops the session's checkpoint pin.
func (tx *CTx) releaseMark() {
	if !tx.markHeld {
		return
	}
	tx.markHeld = false
	tx.d.nv.Unpin(tx.store.snap.Mark)
}

// finish closes the session out: mark released, writer unregistered
// (ending its linger, if its request was flushed), (when the session did
// not commit) its page numbers recycled, and its working state detached
// from the handle and handed back. A request it submitted has been
// flushed and received by now, so nothing else refers to the state.
func (tx *CTx) finish(recycle bool) {
	tx.done = true
	tx.releaseMark()
	st := tx.store.sessionState
	tx.store.sessionState = nil
	if recycle {
		tx.d.poolPut(st.allocs)
	}
	tx.d.gc.unregister(&st.req)
	tx.d.returnSession(st)
}

// Rollback abandons the session. Nothing reached shared state, so this
// only recycles the session's page numbers.
func (tx *CTx) Rollback() {
	if tx.done {
		return
	}
	tx.finish(true)
}

// Commit validates and commits the session (see CommitCtx).
func (tx *CTx) Commit() error {
	ctx := tx.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return tx.CommitCtx(ctx)
}

// sessionWrite is one page the session will commit.
type sessionWrite struct {
	pgno  uint32
	img   []byte
	base  []byte // nil stages a full frame
	fresh bool
	// freed: img is still to be made, base relinked onto the freelist —
	// base is then the session's own copy of the loaded image, made while
	// the snapshot was pinned (after that the loaded image may be recycled).
	freed bool
}

// writeOrder sorts written pages before freed ones, each by page number.
func writeOrder(a, b sessionWrite) int {
	if a.freed != b.freed {
		if a.freed {
			return 1
		}
		return -1
	}
	return cmp.Compare(a.pgno, b.pgno)
}

// CommitCtx runs first-committer-wins validation and, if the session
// wins, commits it through the group queue. The expensive half — the
// differential staging of every written page into the session's log
// stream — runs before any engine lock is taken, fully in parallel
// with other committing sessions; the writer slot is held only for the
// page-1 reconcile, validation, and enqueue. Losers get ErrConflict
// with the session rolled back cleanly; the deadline machinery
// (Options.CommitTimeout / ctx) bounds backpressure stalls exactly as
// for legacy commits.
func (tx *CTx) CommitCtx(ctx context.Context) error {
	if err := tx.guard(); err != nil {
		return err
	}
	d, st := tx.d, tx.store.sessionState
	tx.charge(d.opts.CPU.TxnFixed)
	dl := d.newDeadline(ctx)
	// One slice carries the whole commit: the written pages, then the
	// freed ones, each in page order, then page 1. staged filters it in
	// place — an entry is read before its slot can be overwritten, as
	// staged never overtakes the entry being read.
	writes := slices.Grow(st.writes[:0], len(st.pages)+1)
	st.writes = writes
	nw := 0
	for pgno, e := range st.pages {
		if e.dirty {
			writes = append(writes, sessionWrite{pgno: pgno, img: e.own, base: e.base, fresh: e.fresh})
			nw++
		}
		if e.freed {
			own := pager.NewImage(d.nv, e.base, len(e.base))
			writes = append(writes, sessionWrite{pgno: pgno, base: own, freed: true})
		}
	}
	slices.SortFunc(writes, writeOrder)
	written, freed := writes[:nw], writes[nw:]

	// Stage the session's own writes — no lock held.
	staged := writes[:0]
	for _, wr := range written {
		ok, err := st.stream.StagePage(wr.pgno, wr.img, wr.base)
		if err != nil {
			tx.finish(true)
			return err
		}
		if ok {
			staged = append(staged, wr)
		}
	}
	if len(staged) == 0 && len(freed) == 0 {
		// Read-only (or all writes were byte-identical no-ops): nothing
		// to validate, nothing to log.
		tx.finish(true)
		return nil
	}

	// The snapshot is no longer needed — everything the commit writes
	// is materialized above. Dropping the pin here keeps the session's
	// own flush (whose space reclaim runs checkpoint rounds) from being
	// refused by its own mark.
	tx.releaseMark()

	if err := d.claimSlot(ctx); err != nil {
		tx.finish(true)
		return err
	}

	// Page-1 reconcile, against the CURRENT committed header (stable
	// while the slot is held), not the snapshot: the page count covers
	// every page this session materializes, and freed pages chain onto
	// the shared freelist. Sessions never write page 1 from btree ops,
	// so this page is never part of the validation set — the slot
	// serializes it.
	cur1, err := d.pg.Get(1)
	if err != nil {
		d.releaseSlot()
		tx.finish(true)
		return err
	}
	maxOwn := pager.HeaderPageCount(cur1)
	for _, wr := range staged {
		if wr.fresh && wr.pgno > maxOwn {
			maxOwn = wr.pgno
		}
	}
	// A session that neither extends the database nor frees a page leaves
	// the header as it is: it stages the committed image itself, which a
	// differential stream drops as identical — no copy either way.
	img1 := cur1
	if maxOwn != pager.HeaderPageCount(cur1) || len(freed) > 0 {
		img1 = pager.NewImage(d.nv, cur1, len(cur1))
		pager.SetHeaderPageCount(img1, maxOwn)
		head := pager.HeaderFreeHead(img1)
		cnt := pager.HeaderFreeCount(img1)
		for _, wr := range freed {
			wr.img = pager.NewImage(d.nv, wr.base, len(wr.base))
			pager.SetFreelistLink(wr.img, head)
			head = wr.pgno
			cnt++
			ok, err := st.stream.StagePage(wr.pgno, wr.img, wr.base)
			if err != nil {
				d.releaseSlot()
				tx.finish(true)
				return err
			}
			if ok {
				staged = append(staged, wr)
			}
		}
		pager.SetHeaderFreeHead(img1, head)
		pager.SetHeaderFreeCount(img1, cnt)
	}
	// cur1 is the pager's committed image, which nobody writes: it is the
	// diff base as it is.
	hdrWrite := sessionWrite{pgno: 1, img: img1, base: cur1}
	if ok, err := st.stream.StagePage(hdrWrite.pgno, hdrWrite.img, hdrWrite.base); err != nil {
		d.releaseSlot()
		tx.finish(true)
		return err
	} else if ok {
		staged = append(staged, hdrWrite)
	}

	// Validate + publish under gc.mu: the versions vector, the seq, and
	// the queue position all move together.
	gc := d.gc
	gc.mu.Lock()
	if gc.failed != nil {
		err := gc.failed
		gc.mu.Unlock()
		d.releaseSlot()
		tx.finish(true)
		return err
	}
	for _, wr := range staged {
		if wr.pgno == 1 || wr.fresh {
			continue
		}
		if int(wr.pgno) < len(gc.versions) && gc.versions[wr.pgno] > tx.snapSeq {
			gc.mu.Unlock()
			d.releaseSlot()
			tx.finish(true)
			d.plat.Metrics.Inc(metrics.MVCCConflicts, 1)
			return fmt.Errorf("%w: page %d", ErrConflict, wr.pgno)
		}
	}
	st.frames = st.stream.AppendFrames(st.frames[:0])
	gc.submit(&st.req, st.frames, st.stream, dl.until)
	gc.mu.Unlock()

	// Publish the committed images into the shared pager cache before
	// the slot is released, so the next legacy writer (and non-snapshot
	// reads) see them — the analogue of FinishCommit.
	for _, wr := range staged {
		d.pg.Install(wr.pgno, wr.img)
	}
	d.releaseSlot()
	<-st.req.done
	// The request goes back with the state: read it first.
	if err := st.req.err; err != nil {
		tx.finish(false) // group failure latches the engine; images may be shared
		return err
	}
	tx.seq = st.req.seq
	tx.finish(false)
	d.plat.Metrics.Inc(metrics.MVCCCommits, 1)
	d.maybeKickScrub()
	return d.AutoCheckpoint(false)
}

// RunConcurrent runs fn inside MVCC sessions, retrying conflicts until
// the commit succeeds, fn fails, or the backpressure deadline
// (Options.CommitTimeout / ctx) expires — the same budget legacy
// commits stall under. fn must be idempotent: it may run many times.
func (d *DB) RunConcurrent(ctx context.Context, fn func(tx *CTx) error) error {
	dl := d.newDeadline(ctx)
	for {
		tx, err := d.BeginConcurrentCtx(ctx)
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			tx.Rollback()
			return err
		}
		err = tx.CommitCtx(ctx)
		if err == nil || !errors.Is(err, ErrConflict) {
			return err
		}
		if derr := dl.expired("mvcc-commit"); derr != nil {
			return fmt.Errorf("%w (last: %v)", derr, err)
		}
	}
}
