// Replica: a node following a primary's log into its own db.DB. Shipped
// frame ranges are chain-verified and applied as one transaction of the
// replica's database (db.ImportFrames: each page patched in the pager and
// committed through the replica's own NVWAL, one commit mark per batch) —
// so a replica survives its own power failures by the same recovery path
// as a primary, and re-applied ranges after a crash are idempotent. The
// replica's position — primary incarnation, applied primary mark, stream
// chain — is written into page 1 inside that same transaction
// (db.Position), so one commit mark publishes the frames and the position
// together and a crash leaves neither without the other. The replica
// checkpoints its journal when its primary does — on the batch that
// carries a backfill watermark it has not yet checkpointed at, after that
// batch's ack is on the wire — so the cluster has one checkpoint policy,
// the primary's, and no node's round waits for another's. A read is the
// database's snapshot reader (db.ReadTx): it pins the journal's mark,
// sees whole batches and waits for neither an apply nor a round.
package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/server"
)

// checkpointNet is the replica's safety net: its own journal reaching
// this many unbackfilled frames forces a round even if no boundary
// arrived (a primary that predates the watermark field, or one whose
// rounds keep failing). It is never reached while the primary
// checkpoints at all.
const checkpointNet = 2 * db.DefaultCheckpointLimit

// followerOptions opens a replica's database: the paper's NVWAL variant,
// no checkpoint of its own choosing (the boundary policy above runs every
// round) and no background goroutine.
var followerOptions = db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), CheckpointLimit: -1}

// ReplicaOptions configures a replica node.
type ReplicaOptions struct {
	// Epoch the replica reports in Status (the fencing epoch of the
	// primary it expects to follow).
	Epoch uint64
	// Metrics receives replica counters (default: the platform sink; the
	// database's own counters always go there).
	Metrics *metrics.Counters
}

// Replica follows a primary and serves snapshot reads.
type Replica struct {
	plat *platform.Platform
	name string
	opts ReplicaOptions
	m    *metrics.Counters
	// db is the applied state: applies write it, reads pin its snapshots.
	db *db.DB
	// reads is read-locked by every read; Close, Promote and a refused
	// round write-lock it only to wait the reads in flight out.
	reads sync.RWMutex
	// seeded: applies set it under rw, Promote clears it under reads.
	seeded atomic.Bool

	// rw serializes applies, rounds and the fields below. pos is the
	// position the database's last import committed.
	rw          sync.RWMutex
	pos         db.Position
	degradedErr error
	// ckptAt is the primary mark this replica's journal was last
	// checkpointed at; ckptErr is that round's failure, nil once a later
	// round succeeds.
	ckptAt  int
	ckptErr error

	mu     sync.Mutex
	lis    netsim.Listener
	cur    netsim.Conn
	closed bool
}

// NewReplica opens (or re-opens after a crash) replica state for the
// database file name on plat. Recovery of the replica's own journal runs
// inside db.Open and restores the position its last import committed
// with its frames. No position, or a page 1 that cannot be read, leaves
// the replica unseeded — it will request a full generation transfer. A
// database that opens degraded still follows: its applies go on, and its
// rounds fail until a re-seed finds a healthy node.
func NewReplica(plat *platform.Platform, name string, opts ReplicaOptions) (*Replica, error) {
	if opts.Metrics == nil {
		opts.Metrics = plat.Metrics
	}
	d, err := db.Open(plat, name, followerOptions)
	if err != nil && !errors.Is(err, db.ErrDegraded) {
		return nil, err
	}
	r := &Replica{plat: plat, name: name, opts: opts, m: opts.Metrics, db: d}
	if pos, err := d.ImportedPosition(); err == nil && pos != (db.Position{}) {
		r.pos = pos
		r.seeded.Store(true)
	}
	// The next boundary the primary announces past this mark runs a round.
	r.ckptAt = r.pos.Applied
	return r, nil
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
	// Wait out a handler inside an apply or a post-ack round (each checks
	// stopped() on entry) and the reads in flight, so that once Close
	// returns nothing it started touches the database, then abandon the
	// handle without a checkpoint: the state may be reopened or promoted.
	r.rw.Lock()
	r.rw.Unlock() //nolint:staticcheck // an empty critical section is the barrier
	r.reads.Lock()
	r.reads.Unlock() //nolint:staticcheck // as above
	r.db.Abandon()
}

// stopped reports whether Close was called. Journal-touching critical
// sections check it under r.rw; see Close.
func (r *Replica) stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Promote ends replication and re-opens the replica's state as a full
// database: recovery replays the replica's own journal, and the
// caller serves writes from the returned handle under a NEW fencing
// epoch. Its first commit clears the replication position — the new
// primary starts a new mark space, its followers re-seed by construction,
// and the node reopened as a replica later is unseeded.
func (r *Replica) Promote(opts db.Options) (*db.DB, error) {
	r.Close()
	r.rw.Lock()
	defer r.rw.Unlock()
	// A read racing the promotion finished inside Close or gets ErrNotSeeded.
	r.reads.Lock()
	r.seeded.Store(false)
	r.reads.Unlock()
	d, err := db.Open(r.plat, r.name, opts)
	if err != nil {
		return d, err
	}
	if err := d.ImportFrames(nil, db.Position{}); err != nil {
		_ = d.Close()
		return nil, err
	}
	return d, nil
}

// handleConn runs one primary connection: hello, then apply/ack.
func (r *Replica) handleConn(conn netsim.Conn) {
	r.rw.RLock()
	h := hello{
		incarnation: r.pos.Incarnation,
		applied:     r.pos.Applied,
		chain:       r.pos.Chain,
		needSeed:    !r.seeded.Load() || r.degradedErr != nil,
	}
	r.rw.RUnlock()
	if err := conn.Send(encodeHello(h)); err != nil {
		return
	}
	// The handler's own, reused message after message: the decoded frame
	// list (emptied after each apply, as its payloads alias the message)
	// and the encoded ack.
	var frames []core.ExportFrame
	ackBuf := make([]byte, 0, 18)
	for {
		msg, err := conn.Recv(0)
		if err != nil {
			return
		}
		if len(msg) == 0 {
			return
		}
		var a ack
		roundDue := false
		switch msg[0] {
		case mtSeed:
			s, derr := decodeSeed(msg)
			if derr != nil {
				return
			}
			a = r.applySeed(s)
		case mtFrames:
			f, derr := decodeFrames(msg, frames)
			if derr != nil {
				return
			}
			a, roundDue = r.applyFrames(f)
			frames = f.batch.Frames
			clear(frames)
		default:
			return
		}
		// Ack first, write back second: the ack says the frames and the
		// position are committed, which is all the primary's commit waits
		// for. A round the batch left due runs before the next batch is
		// read, whether or not the ack got out.
		err = conn.Send(encodeAck(ackBuf[:0], a))
		if roundDue {
			r.checkpointAfterAck()
		}
		if err != nil {
			return
		}
	}
}

// applySeed installs a full generation transfer: every page as one Full
// frame of one imported transaction (logged against the image the journal
// already holds, so re-seeding a replica that has most of the state logs
// little), then a checkpoint to compact. Clears the degraded latch — a
// re-seed heals divergence.
func (r *Replica) applySeed(s seedMsg) ack {
	r.rw.Lock()
	defer r.rw.Unlock()
	nack := ack{incarnation: s.incarnation, applied: r.pos.Applied, ok: false}
	if r.stopped() {
		return nack
	}
	frames := make([]core.ExportFrame, len(s.pages))
	for i, pg := range s.pages {
		frames[i] = core.ExportFrame{Pgno: pg.pgno, Full: true, Payload: pg.data}
	}
	pos := db.Position{Incarnation: s.incarnation, Applied: s.mark, Chain: core.ExportChainSeed(s.mark)}
	if err := r.db.ImportFrames(frames, pos); err != nil {
		return nack
	}
	r.pos = pos
	r.seeded.Store(true)
	r.degradedErr = nil
	r.checkpoint()
	r.m.Inc(metrics.ReplBatchesApplied, 1)
	return ack{incarnation: pos.Incarnation, applied: pos.Applied, ok: true}
}

// ApplyBatch applies an exported range the way a FRAMES message from a
// primary of the given incarnation is applied, for a caller that holds
// the batch in-process (benchmarks drive a replica without a network).
// With no wire in between there is no shipped chain value to check, so
// the one the message would carry is folded here.
func (r *Replica) ApplyBatch(incarnation uint64, b core.ExportBatch) bool {
	r.rw.RLock()
	chain := r.pos.Chain
	r.rw.RUnlock()
	a, roundDue := r.applyFrames(framesMsg{incarnation: incarnation, batch: b, endChain: core.ChainExport(chain, b)})
	if roundDue {
		r.checkpointAfterAck()
	}
	return a.ok
}

// applyFrames verifies and applies one shipped mark range. It runs no
// checkpoint round; it reports whether the batch left one due, for the
// caller to run (checkpointAfterAck) once the ack is on the wire. One
// checkpoint policy for the cluster, the primary's: a round is due on the
// batch that carries a backfill watermark this replica has not yet
// checkpointed at — the very write that froze the primary's round — and
// the safety net catches a primary that announces none.
func (r *Replica) applyFrames(f framesMsg) (a ack, roundDue bool) {
	r.rw.Lock()
	defer r.rw.Unlock()
	nack := ack{incarnation: r.pos.Incarnation, applied: r.pos.Applied, ok: false}
	if !r.seeded.Load() || r.degradedErr != nil || r.stopped() {
		return nack, false
	}
	if f.incarnation != r.pos.Incarnation {
		return nack, false
	}
	if f.batch.From != r.pos.Applied {
		// A range not anchored at the applied mark is a gap (or an overlap
		// from a confused sender) — unhealable in place.
		return nack, false
	}
	end := core.ChainExport(r.pos.Chain, f.batch)
	if end != f.endChain {
		// The stream diverged from what the primary computed: latch
		// read-only-degraded; only a full re-seed clears it.
		r.degradedErr = fmt.Errorf("repl: export chain diverged at mark %d (%08x != %08x)",
			f.batch.To, end, f.endChain)
		r.m.Inc(metrics.ReplDivergences, 1)
		return nack, false
	}
	pos := db.Position{Incarnation: r.pos.Incarnation, Applied: f.batch.To, Chain: end}
	if err := r.db.ImportFrames(f.batch.Frames, pos); err != nil {
		return nack, false
	}
	r.pos = pos
	r.m.Inc(metrics.ReplBatchesApplied, 1)
	roundDue = f.batch.Backfill > r.ckptAt || r.db.Journal().FramesSinceCheckpoint() >= checkpointNet
	return ack{incarnation: pos.Incarnation, applied: pos.Applied, ok: true}, roundDue
}

// checkpointAfterAck runs the round an applied batch left due. It runs
// inline on the applying goroutine, on the far side of the ack: every
// device of a node charges the node's one lane, so a background round
// would smear its flash time over whatever overlaps it in host time and
// make virtual time depend on the scheduler, while here it is
// deterministic and costs a commit nothing unless the next batch arrives
// before the round ends.
func (r *Replica) checkpointAfterAck() {
	r.rw.Lock()
	defer r.rw.Unlock()
	if !r.stopped() {
		r.checkpoint()
	}
}

// checkpoint compacts the replica's journal into its database file, at
// the applied mark. A failed round is counted and retried at the next
// boundary or, past the safety net, on every batch; the frames
// themselves stay durable in the journal. A round that a pinned mark
// refuses is no failure: it leaves ckptAt where it was, so the next batch
// runs it. Caller holds r.rw.
func (r *Replica) checkpoint() {
	err := r.db.Checkpoint()
	if errors.Is(err, db.ErrBusySnapshot) {
		// A read pinned before the batch refused it. Reads are short: wait
		// out those in flight (one starting now pins the round's own mark)
		// and retry, so that overlapping reads cannot put the round off
		// batch after batch.
		r.reads.Lock()
		r.reads.Unlock() //nolint:staticcheck // an empty critical section is the barrier
		if err = r.db.Checkpoint(); errors.Is(err, db.ErrBusySnapshot) {
			return
		}
	}
	r.ckptAt = r.pos.Applied
	if r.ckptErr = err; err != nil {
		r.m.Inc(metrics.ReplCheckpointErrors, 1)
	}
}

// --- server.Engine: snapshot reads at the applied mark -------------

// ErrNotSeeded is returned for reads before the first seed/resume.
var ErrNotSeeded = errors.New("repl: replica holds no seeded state")

// Get serves a read at the journal's mark when it starts. The value is a
// copy the caller owns.
func (r *Replica) Get(table string, key []byte) ([]byte, bool, error) {
	return r.AppendGet(nil, table, key)
}

// AppendGet is Get appending the value to dst (server.AppendGetter),
// inside the read's snapshot; a missing key or an error returns dst as
// passed.
func (r *Replica) AppendGet(dst []byte, table string, key []byte) ([]byte, bool, error) {
	rt, err := r.beginRead()
	if err != nil {
		return dst, false, err
	}
	defer r.endRead(rt)
	return rt.AppendGet(dst, table, key)
}

// Scan visits the applied state's records in ascending key order. key
// and value are valid until fn returns; copy them to keep them.
func (r *Replica) Scan(table string, fn func(key, value []byte) bool) error {
	rt, err := r.beginRead()
	if err != nil {
		return err
	}
	defer r.endRead(rt)
	return rt.Scan(table, fn)
}

// beginRead opens a snapshot of the applied state; the caller ends it
// with endRead unless beginRead fails.
func (r *Replica) beginRead() (*db.ReadTx, error) {
	r.reads.RLock()
	if !r.seeded.Load() {
		r.reads.RUnlock()
		return nil, ErrNotSeeded
	}
	rt, err := r.db.BeginRead()
	if err != nil {
		r.reads.RUnlock()
	}
	return rt, err
}

func (r *Replica) endRead(rt *db.ReadTx) {
	rt.Close()
	r.reads.RUnlock()
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
		Role:    "replica",
		Epoch:   r.opts.Epoch,
		Mark:    r.pos.Applied,
		Applied: r.pos.Applied,
		// A failed checkpoint round degrades the replica only once the
		// safety net is past as well: until then the next boundary retries.
		Degraded: r.degradedErr != nil || !r.seeded.Load() ||
			(r.ckptErr != nil && r.db.Journal().FramesSinceCheckpoint() >= checkpointNet),
	}
}

// Applied returns the applied primary mark (failover drivers pick the
// most-caught-up replica by this value).
func (r *Replica) Applied() int {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.pos.Applied
}

// Incarnation returns the incarnation (its primary's fencing epoch) of
// the log the replica's state follows, 0 before the first seed. Applied
// marks of different incarnations do not compare.
func (r *Replica) Incarnation() uint64 {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.pos.Incarnation
}

// Degraded returns the latched divergence error, if any.
func (r *Replica) Degraded() error {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.degradedErr
}
