// Replica: a full NVWAL node following a primary's log. Shipped frame
// ranges are chain-verified, reconstructed into full-page images
// against the replica's current state, and committed through the
// replica's OWN NVWAL (WriteFrames with a commit mark) — so a replica
// survives its own power failures by the same recovery path as a
// primary, and re-applied ranges after a crash are idempotent. The
// applied primary mark, stream chain and primary incarnation persist
// as CRC-guarded roots in the NVRAM namespace, written only AFTER the
// corresponding frames are durable (a crash between the two leaves
// the cursor stale-low, which resumes by harmless re-apply). Reads
// serve a btree view at exactly the applied mark under an RWMutex —
// a replica can never serve state newer than what it acked.
package repl

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dbfile"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pager"
	"repro/internal/platform"
	"repro/internal/server"
)

// Persistent cursor roots in the NVRAM namespace.
const (
	rootInc     = "repl:inc"
	rootApplied = "repl:applied"
	rootChain   = "repl:chain"
	rootSum     = "repl:sum"
)

var replCRC = crc32.MakeTable(crc32.Castagnoli)

// ReplicaOptions configures a replica node.
type ReplicaOptions struct {
	// Epoch the replica reports in Status (the fencing epoch of the
	// primary it expects to follow).
	Epoch uint64
	// NVWAL configures the replica's own journal (default
	// core.VariantUHLSDiff with a name derived from the file name).
	NVWAL *core.Config
	// PageSize must match the primary's (default 4096).
	PageSize int
	// CheckpointEvery compacts the replica journal into its database
	// file every N applied batches (default 16).
	CheckpointEvery int
	// Reserved is the btree per-page reserve of the primary's pages
	// (default core.RecommendedPageReserve — the NVWAL layout).
	Reserved int
	// Metrics receives replica counters (default: the platform sink).
	Metrics *metrics.Counters
}

// Replica follows a primary and serves snapshot reads.
type Replica struct {
	plat *platform.Platform
	name string
	opts ReplicaOptions
	m    *metrics.Counters
	dbf  *dbfile.File
	wal  *core.NVWAL
	// view resolves the applied state's read-only page images (the same
	// helper the primary's snapshot readers use); catalog memoises the
	// table catalog against the page-1 image.
	view    *pager.ReadView
	catalog db.CatalogCache

	// rw orders applies (write lock) against reads (read lock): a read
	// observes exactly the applied mark, never a half-applied batch.
	rw          sync.RWMutex
	incarnation uint64
	applied     int
	chain       uint32
	seeded      bool
	degradedErr error
	batches     int

	mu     sync.Mutex
	lis    netsim.Listener
	cur    netsim.Conn
	closed bool
}

// NewReplica opens (or re-opens after a crash) replica state for the
// database file name on plat. Recovery of the replica's own journal
// runs inside core.Open; the persisted cursor then says which primary
// mark that state corresponds to. An invalid or missing cursor leaves
// the replica unseeded — it will request a full generation transfer.
func NewReplica(plat *platform.Platform, name string, opts ReplicaOptions) (*Replica, error) {
	if opts.PageSize <= 0 {
		opts.PageSize = 4096
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 16
	}
	if opts.Reserved == 0 {
		opts.Reserved = core.RecommendedPageReserve
	}
	if opts.Metrics == nil {
		opts.Metrics = plat.Metrics
	}
	cfg := core.VariantUHLSDiff()
	if opts.NVWAL != nil {
		cfg = *opts.NVWAL
	}
	if cfg.Name == "" {
		cfg.Name = "nvwal:" + name
	}
	f, err := plat.FS.OpenOrCreate(name, "db")
	if err != nil {
		return nil, err
	}
	r := &Replica{
		plat: plat,
		name: name,
		opts: opts,
		m:    opts.Metrics,
		dbf:  dbfile.New(f, opts.PageSize),
	}
	r.wal, err = core.Open(plat.Heap, r.dbf, cfg, r.m)
	if err != nil {
		return nil, err
	}
	r.view = pager.NewReadView(r.wal, r.dbf)
	r.loadCursor()
	return r, nil
}

// loadCursor restores the persisted (incarnation, applied, chain)
// triple when its checksum verifies; anything else means re-seed.
func (r *Replica) loadCursor() {
	h := r.plat.Heap
	inc, ok1 := h.GetRoot(rootInc)
	applied, ok2 := h.GetRoot(rootApplied)
	chain, ok3 := h.GetRoot(rootChain)
	sum, ok4 := h.GetRoot(rootSum)
	if !(ok1 && ok2 && ok3 && ok4) || sum != cursorSum(inc, applied, chain) {
		return
	}
	r.incarnation = inc
	r.applied = int(applied)
	r.chain = uint32(chain)
	r.seeded = true
}

// saveCursor persists the cursor AFTER the frames it covers are
// durable in the replica's journal.
func (r *Replica) saveCursor() {
	h := r.plat.Heap
	inc, applied, chain := r.incarnation, uint64(r.applied), uint64(r.chain)
	_ = h.SetRoot(rootInc, inc)
	_ = h.SetRoot(rootApplied, applied)
	_ = h.SetRoot(rootChain, chain)
	_ = h.SetRoot(rootSum, cursorSum(inc, applied, chain))
}

func cursorSum(inc, applied, chain uint64) uint64 {
	var b [24]byte
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, inc)
	put(8, applied)
	put(16, chain)
	return uint64(crc32.Checksum(b[:], replCRC))
}

// Serve accepts primary connections on l until Close. Newest conn
// wins: accepting closes the previous conn, so a primary redialing
// past a partition (whose old conn is a silent zombie — partitions
// drop messages without closing anything) is served immediately and
// the stale handler unblocks on its closed conn. Handlers serialize
// on r.rw, so overlap during the switch cannot interleave applies.
func (r *Replica) Serve(l netsim.Listener) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = l.Close()
		return
	}
	r.lis = l
	r.mu.Unlock()
	for {
		conn, err := l.Accept(0)
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = conn.Close()
			return
		}
		if r.cur != nil {
			_ = r.cur.Close()
		}
		r.cur = conn
		r.mu.Unlock()
		go func() {
			r.handleConn(conn)
			_ = conn.Close()
		}()
	}
}

// Close stops following. Replica state stays on the platform — reopen
// with NewReplica, or promote with Promote.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	lis, cur := r.lis, r.cur
	r.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	if cur != nil {
		_ = cur.Close()
	}
}

// Promote ends replication and re-opens the replica's state as a full
// database: recovery replays the replica's own journal, and the
// caller serves writes from the returned handle under a NEW fencing
// epoch. The replication cursor is deleted — the new primary starts a
// new mark space, and its followers re-seed by construction.
func (r *Replica) Promote(opts db.Options) (*db.DB, error) {
	r.Close()
	r.rw.Lock()
	defer r.rw.Unlock()
	h := r.plat.Heap
	h.DeleteRoot(rootInc)
	h.DeleteRoot(rootApplied)
	h.DeleteRoot(rootChain)
	h.DeleteRoot(rootSum)
	return db.Open(r.plat, r.name, opts)
}

// handleConn runs one primary connection: hello, then apply/ack.
func (r *Replica) handleConn(conn netsim.Conn) {
	r.rw.RLock()
	h := hello{
		incarnation: r.incarnation,
		applied:     uint64(r.applied),
		chain:       r.chain,
		needSeed:    !r.seeded || r.degradedErr != nil,
	}
	r.rw.RUnlock()
	if err := conn.Send(encodeHello(h)); err != nil {
		return
	}
	for {
		msg, err := conn.Recv(0)
		if err != nil {
			return
		}
		if len(msg) == 0 {
			return
		}
		var a ack
		switch msg[0] {
		case mtSeed:
			s, derr := decodeSeed(msg)
			if derr != nil {
				return
			}
			a = r.applySeed(s)
		case mtFrames:
			f, derr := decodeFrames(msg)
			if derr != nil {
				return
			}
			a = r.applyFrames(f)
		default:
			return
		}
		if err := conn.Send(encodeAck(a)); err != nil {
			return
		}
	}
}

// applySeed installs a full generation transfer: every page as a
// full-image frame through the replica's journal, then a checkpoint
// to compact. Clears the degraded latch — a re-seed heals divergence.
func (r *Replica) applySeed(s seedMsg) ack {
	r.rw.Lock()
	defer r.rw.Unlock()
	frames := make([]pager.Frame, 0, len(s.pages))
	for _, pg := range s.pages {
		data := pg.data
		if len(data) < r.opts.PageSize {
			padded := make([]byte, r.opts.PageSize)
			copy(padded, data)
			data = padded
		}
		frames = append(frames, pager.Frame{Pgno: pg.pgno, Data: data})
	}
	if err := r.wal.WriteFrames(frames, true); err != nil {
		return ack{incarnation: s.incarnation, applied: uint64(r.applied), ok: false}
	}
	_ = r.wal.CheckpointIncremental(nil)
	r.incarnation = s.incarnation
	r.applied = s.mark
	r.chain = core.ExportChainSeed(s.mark)
	r.seeded = true
	r.degradedErr = nil
	r.saveCursor()
	r.m.Inc(metrics.ReplBatchesApplied, 1)
	return ack{incarnation: r.incarnation, applied: uint64(r.applied), ok: true}
}

// applyFrames verifies and applies one shipped mark range.
func (r *Replica) applyFrames(f framesMsg) ack {
	r.rw.Lock()
	defer r.rw.Unlock()
	nack := func() ack {
		return ack{incarnation: r.incarnation, applied: uint64(r.applied), ok: false}
	}
	if !r.seeded || r.degradedErr != nil {
		return nack()
	}
	if f.incarnation != r.incarnation {
		return nack()
	}
	if f.batch.From != r.applied {
		// A range not anchored at the cursor is a gap (or an overlap
		// from a confused sender) — unhealable in place.
		return nack()
	}
	end := core.ChainExport(r.chain, f.batch)
	if end != f.endChain {
		// The stream diverged from what the primary computed: latch
		// read-only-degraded; only a full re-seed clears it.
		r.degradedErr = fmt.Errorf("repl: export chain diverged at mark %d (%08x != %08x)",
			f.batch.To, end, f.endChain)
		r.m.Inc(metrics.ReplDivergences, 1)
		return nack()
	}

	// Reconstruct full-page images in frame order (later frames patch
	// earlier ones within the batch).
	images := make(map[uint32][]byte)
	order := make([]uint32, 0, len(f.batch.Frames))
	for _, fr := range f.batch.Frames {
		img, ok := images[fr.Pgno]
		if !ok {
			img = r.pageImage(fr.Pgno)
			order = append(order, fr.Pgno)
		}
		if fr.Full {
			clear(img)
		}
		if int(fr.Off)+len(fr.Payload) > len(img) {
			return nack()
		}
		copy(img[fr.Off:], fr.Payload)
		images[fr.Pgno] = img
	}
	frames := make([]pager.Frame, 0, len(images))
	for _, pgno := range order {
		frames = append(frames, pager.Frame{Pgno: pgno, Data: images[pgno]})
	}
	if err := r.wal.WriteFrames(frames, true); err != nil {
		return nack()
	}
	r.applied = f.batch.To
	r.chain = end
	r.saveCursor()
	r.m.Inc(metrics.ReplBatchesApplied, 1)
	r.batches++
	if r.batches%r.opts.CheckpointEvery == 0 {
		_ = r.wal.CheckpointIncremental(nil)
	}
	return ack{incarnation: r.incarnation, applied: uint64(r.applied), ok: true}
}

// pageImage returns a mutable copy of the replica's current image of
// pgno (zeros when it cannot be read). Caller holds r.rw.
func (r *Replica) pageImage(pgno uint32) []byte {
	img, err := r.store().Get(pgno)
	if err != nil {
		return make([]byte, r.opts.PageSize)
	}
	return slices.Clone(img)
}

// --- server.Engine: snapshot reads at the applied mark -------------

// ErrNotSeeded is returned for reads before the first seed/resume.
var ErrNotSeeded = errors.New("repl: replica holds no seeded state")

// Get serves a read at exactly the applied mark.
func (r *Replica) Get(table string, key []byte) ([]byte, bool, error) {
	r.rw.RLock()
	defer r.rw.RUnlock()
	if !r.seeded {
		return nil, false, ErrNotSeeded
	}
	t, err := r.tree(table)
	if err != nil {
		return nil, false, err
	}
	return t.Get(key)
}

// Scan visits the applied state's records in ascending key order.
func (r *Replica) Scan(table string, fn func(key, value []byte) bool) error {
	r.rw.RLock()
	defer r.rw.RUnlock()
	if !r.seeded {
		return ErrNotSeeded
	}
	t, err := r.tree(table)
	if err != nil {
		return err
	}
	return t.Scan(fn)
}

// tree builds a read-only btree over the applied state. Caller holds
// r.rw (read or write).
func (r *Replica) tree(table string) (*btree.Tree, error) {
	store := r.store()
	hdr, err := store.Get(1)
	if err != nil {
		return nil, err
	}
	root, ok := r.catalog.Parse(hdr)[table]
	if !ok {
		return nil, fmt.Errorf("repl: no table %q in applied catalog", table)
	}
	return btree.New(store, root, btree.Config{Reserved: r.opts.Reserved}), nil
}

// Apply refuses writes: replicas are read-only until promoted.
func (r *Replica) Apply(context.Context, string, []server.Op) (uint64, error) {
	return 0, server.ErrReadOnly
}

// Status reports the replica's applied position.
func (r *Replica) Status() server.Status {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return server.Status{
		Role:     "replica",
		Epoch:    r.opts.Epoch,
		Mark:     r.applied,
		Applied:  r.applied,
		Degraded: r.degradedErr != nil || !r.seeded,
	}
}

// Applied returns the applied primary mark (failover drivers pick the
// most-caught-up replica by this value).
func (r *Replica) Applied() int {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.applied
}

// Degraded returns the latched divergence error, if any.
func (r *Replica) Degraded() error {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.degradedErr
}

// replStore adapts the replica's applied state to btree.PageStore:
// read-only, every page the image at the applied mark (the journal's
// own wherever it holds one). It lives for one descent or one scan,
// which visit a page once, so it keeps nothing.
type replStore struct {
	view *pager.ReadView
	mark int
}

// store opens the applied state. Applies hold r.rw exclusively, so under
// the read lock the replica journal's own mark IS the applied state.
// Caller holds r.rw (read or write).
func (r *Replica) store() *replStore {
	return &replStore{view: r.view, mark: r.view.Mark()}
}

func (s *replStore) PageSize() int { return s.view.PageSize() }

func (s *replStore) Get(pgno uint32) ([]byte, error) {
	img, _, err := s.view.PageAt(pgno, s.mark)
	return img, err
}

func (s *replStore) Allocate() (uint32, []byte, error) {
	return 0, nil, errors.New("repl: replica store is read-only")
}

func (s *replStore) Free(uint32) error {
	return errors.New("repl: replica store is read-only")
}

func (s *replStore) MarkDirty(uint32) {
	panic("repl: write through a replica read")
}
