// Primary: local commits plus log shipping. One sender goroutine per
// replica runs a strict send/ack loop — resume from the replica's
// HELLO cursor when the mark range is still exportable, full-snapshot
// re-seed when it is not (incarnation change, chain nack, or a range the
// link no longer pinned when a checkpoint passed it: see reviewPin, the
// retention policy). Commits optionally wait for a quorum of replica acks
// (semi-sync): a client-acked write is then guaranteed present on the
// most-caught-up replica, which is exactly the durability the
// failover oracle checks. An ack wait that exhausts its deadline
// AFTER the local commit surfaces server.ErrIndeterminate — the write
// may or may not survive a failover, and the client is told so.
package repl

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simclock"
	"repro/internal/timedcond"
)

// PrimaryOptions configures replication on a primary.
type PrimaryOptions struct {
	// Epoch is the fencing epoch AND the log incarnation shipped to
	// replicas. A new primary (initial boot or promotion) must use a
	// fresh epoch: marks are meaningless across primaries.
	Epoch uint64
	// AckReplicas is the replica-ack quorum a commit waits for
	// (semi-sync). 0 = fully asynchronous shipping.
	AckReplicas int
	// AckTimeout bounds the ack wait in real time (default 2s) on top
	// of the request context. Expiry after the local commit returns
	// an error wrapping server.ErrIndeterminate.
	AckTimeout time.Duration
	// AckBudget enables automatic quarantine (0 = disabled): a replica
	// whose send→ack latency EWMA breaches the budget is dropped from
	// the semi-sync quorum — shipping continues, but commits stop
	// waiting on it. Hysteresis re-admits it once the EWMA is back at
	// half the budget (a health.Tracker's Degraded state). When every
	// quorum-eligible replica is quarantined, commits degrade to
	// asynchronous acks (the MySQL semi-sync wait-no-slave=off
	// behaviour) rather than timing out one by one behind replicas
	// known to be sick.
	AckBudget time.Duration
	// Clock is the primary node's virtual-time lane. With it, ack
	// latency is measured in virtual time — over netsim every ack
	// arrives real-time-fast no matter how slow the replica is
	// virtually, so a real-time EWMA would be blind to exactly the
	// gray slowness quarantine exists to catch. Nil falls back to wall
	// time since NewPrimary (TCP deployments).
	Clock *simclock.Clock
	// Metrics receives replication counters (default: the DB's sink).
	Metrics *metrics.Counters
}

// Primary wraps a local database as a replicating server.Engine.
type Primary struct {
	eng  *server.DBEngine
	d    *db.DB
	wal  *core.NVWAL
	opts PrimaryOptions
	m    *metrics.Counters
	// now is the primary's one time source (health.NodeClock), and acks
	// holds each link's send→ack latency tracker on it, keyed by address.
	now  func() time.Duration
	acks *health.Monitor

	// freezeMu orders Apply's freeze-and-announce steps: announcements
	// are made in the order the freezes ran.
	freezeMu sync.Mutex
	// beforeFreeze, when set, runs in Apply between the local commit and
	// the freeze (tests).
	beforeFreeze func()

	mu       sync.Mutex
	ackCond  *timedcond.Cond
	replicas []*replicaLink
	closed   bool
	// announced and announcedAt are the mark Apply last announced and the
	// lane's time when the commit that announced it was durable locally:
	// senders ship frames below announced and nothing above it, and every
	// frame below it existed by announcedAt. shipCond wakes a sender
	// waiting for announced to pass its cursor.
	announced   int
	announcedAt time.Duration
	shipCond    sync.Cond

	// fenced holds a newer epoch this primary learned it was superseded
	// by (failover drivers call Fence on the old primary when promoting
	// a new one). Senders stop shipping and any in-flight re-seed
	// aborts: a seed stamped with a stale incarnation would only be
	// thrown away by the replica's next hello.
	fenced atomic.Uint64
	// seedBytes is the size of the last seed captured or measured: the
	// retention budget (see overBudget).
	seedBytes atomic.Int64
}

// replicaLink is one replica's shipping state.
type replicaLink struct {
	p    *Primary
	addr string
	dial server.Dialer
	quit chan struct{}
	done chan struct{}

	mu      sync.Mutex
	applied int // highest acked applied mark
	// ackAt is the virtual delivery time of the ack that raised applied (0
	// when the transport tracks none, or a hello raised it).
	ackAt time.Duration
	// ack is the link's send→ack latency tracker (in p.acks). quarantined
	// drops the link from the semi-sync quorum while AckBudget is set and
	// ack reads Degraded: the commit path reads this copy under mu, never
	// the tracker.
	ack         *health.Tracker
	quarantined bool
	// pin is the link's export cursor on the primary's journal, nil while
	// the link holds none (reviewPin).
	pin *core.ExportCursor

	// The sender's own, reused batch after batch: the exported frame list
	// and the encoded message (a Conn keeps no reference to what it sends).
	frames []core.ExportFrame
	wire   []byte
}

// The largest frame list and message buffer a link keeps for its next
// batch; a larger one (a lagging replica's catch-up) is dropped once sent.
const (
	maxKeptFrames = 1 << 12
	maxKeptWire   = 1 << 18
)

// NewPrimary wraps d. The caller keeps ownership of d (Close order:
// Primary first, then the DB).
func NewPrimary(d *db.DB, opts PrimaryOptions) (*Primary, error) {
	wal, ok := d.Journal().(*core.NVWAL)
	if !ok {
		return nil, fmt.Errorf("repl: primary requires JournalNVWAL")
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = d.Metrics()
	}
	p := &Primary{
		eng:  server.NewDBEngine(d, opts.Epoch),
		d:    d,
		wal:  wal,
		opts: opts,
		m:    opts.Metrics,
		now:  health.NodeClock(opts.Clock),
	}
	p.acks = health.NewMonitor(health.Options{Now: p.now, Alpha: 0.3, DegradedLatency: opts.AckBudget})
	p.ackCond = timedcond.New(&p.mu)
	p.shipCond.L = &p.mu
	return p, nil
}

// AddReplica starts shipping to the replica reachable at addr via
// dial. The sender reconnects with backoff for as long as the primary
// lives; a replica that is down just lags.
func (p *Primary) AddReplica(addr string, dial server.Dialer) {
	rl := &replicaLink{
		p:    p,
		addr: addr,
		dial: dial,
		ack:  p.acks.Tracker(addr),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.mu.Lock()
	p.replicas = append(p.replicas, rl)
	p.mu.Unlock()
	go rl.run()
}

// Close stops all senders. The wrapped DB stays open.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	reps := append([]*replicaLink(nil), p.replicas...)
	p.ackCond.Broadcast()
	p.shipCond.Broadcast()
	p.mu.Unlock()
	for _, rl := range reps {
		close(rl.quit)
	}
	for _, rl := range reps {
		<-rl.done
	}
}

// DB exposes the wrapped database.
func (p *Primary) DB() *db.DB { return p.d }

// Get serves reads from the local (fully applied) state.
func (p *Primary) Get(table string, key []byte) ([]byte, bool, error) {
	return p.eng.Get(table, key)
}

// AppendGet is Get appending the value to dst (server.AppendGetter).
func (p *Primary) AppendGet(dst []byte, table string, key []byte) ([]byte, bool, error) {
	return p.eng.AppendGet(dst, table, key)
}

// Apply is the one place a replicated write is sequenced, and nobody's
// acknowledgement in it waits for flash: commit durably → if an inline
// checkpoint round is due, freeze its generation (phase A: two persists)
// → announce the commit to the senders → (semi-sync) wait for the ack
// quorum → write the round back (phases B + C), the last step before
// Apply returns, also when the ack wait failed. An announcement is the
// only thing that makes a sender ship, and it comes after the freeze, so
// the boundary is a fact the batch carrying this commit announces
// (ExportSince stamps the frozen watermark): every replica runs its own
// round after its ack and the cluster's rounds overlap instead of
// chaining. The quorum guarantee: on success, every byte of this commit
// is applied on at least AckReplicas replicas.
func (p *Primary) Apply(ctx context.Context, table string, ops []server.Op) (uint64, error) {
	seq, err := p.eng.ApplyDurable(ctx, table, ops)
	if err != nil {
		return 0, err
	}
	// The commit is durable locally at (at least) the current mark.
	target, at := p.wal.Mark(), p.now()
	if p.beforeFreeze != nil {
		p.beforeFreeze()
	}
	// A round that cannot freeze now (a reader below the watermark, the
	// writer slot busy) puts no watermark in the batch; a later commit
	// retries. The commit is announced all the same.
	p.freezeMu.Lock()
	_ = p.d.AutoCheckpoint(true)
	p.announce(target, at)
	p.freezeMu.Unlock()
	for _, rl := range p.links() {
		rl.reviewPin()
	}
	if p.opts.AckReplicas > 0 {
		p.m.Inc(metrics.ReplAckWaits, 1)
		err = p.waitAcks(ctx, target)
	}
	// The write is durable and acknowledged as far as it will be: a failed
	// round is counted by the database and retried at the next due commit.
	_ = p.d.AutoCheckpoint(false)
	return seq, err
}

// waitAcks blocks until AckReplicas replicas acked applied >= target.
func (p *Primary) waitAcks(ctx context.Context, target int) error {
	// The ack timeout is a deadline on ackCond's one reusable timer. A
	// context that can end at all wakes the waiter through a hook that is
	// torn down on return; a background one needs none. So an acked write
	// leaves no timer or goroutine behind, and under a background context
	// allocates nothing to wait.
	deadline := time.Now().Add(p.opts.AckTimeout)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.ackCond.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	expired := false
	for {
		acked, at := p.quorumLocked(target)
		if acked >= p.opts.AckReplicas {
			// An ack moves the primary's clock only for the commit that
			// waited for it, and only the ack that completed the quorum: a
			// later one from a replica nobody waited for is not on any
			// write's path (the rule hedged reads follow: the winner's
			// delivery time only).
			if p.opts.Clock != nil {
				p.opts.Clock.AdvanceTo(at)
			}
			return nil
		}
		if p.opts.AckBudget > 0 && p.eligibleLocked() < p.opts.AckReplicas {
			// Not enough healthy replicas to ever satisfy the quorum:
			// degrade this commit to asynchronous acknowledgement
			// instead of burning its full timeout against replicas the
			// watchdog already knows are sick. Shipping continues; the
			// quorum guarantee resumes the moment a re-admit restores
			// eligibility.
			return nil
		}
		if p.closed {
			return fmt.Errorf("repl: primary closed during ack wait: %w", server.ErrIndeterminate)
		}
		if expired || ctx.Err() != nil {
			return fmt.Errorf("repl: %d/%d replica acks for mark %d: %w",
				acked, p.opts.AckReplicas, target, server.ErrIndeterminate)
		}
		expired = p.ackCond.WaitUntil(deadline)
	}
}

// quorumLocked counts quorum-eligible replicas whose acked applied mark
// covers target and, once they are a quorum, reports the virtual time it
// was complete: the AckReplicas-th smallest delivery time among their
// acks (0 off-simulation). Quarantined replicas do not count: their acks
// still advance the cursor (shipping never stops) but a commit must not
// treat a known-sick replica as its durability copy. Caller holds p.mu.
func (p *Primary) quorumLocked(target int) (acked int, at time.Duration) {
	var buf [8]time.Duration // on the stack: a write must not allocate to learn its quorum
	ats := buf[:0]
	for _, rl := range p.replicas {
		rl.mu.Lock()
		if rl.applied >= target && !rl.quarantined {
			ats = append(ats, rl.ackAt)
		}
		rl.mu.Unlock()
	}
	if k := p.opts.AckReplicas; k > 0 && len(ats) >= k {
		slices.Sort(ats)
		at = ats[k-1]
	}
	return len(ats), at
}

// eligibleLocked counts replicas currently admitted to the semi-sync
// quorum. Caller holds p.mu.
func (p *Primary) eligibleLocked() int {
	n := 0
	for _, rl := range p.replicas {
		rl.mu.Lock()
		if !rl.quarantined {
			n++
		}
		rl.mu.Unlock()
	}
	return n
}

// Quarantined returns the addresses of currently quarantined replicas,
// sorted.
func (p *Primary) Quarantined() []string {
	var out []string
	for addr, s := range p.acks.States() {
		if p.opts.AckBudget > 0 && s == health.Degraded {
			out = append(out, addr)
		}
	}
	slices.Sort(out)
	return out
}

// Fence informs the primary it has been superseded by a newer epoch.
// Senders stop shipping (frames and seeds stamped with the old
// incarnation would be rejected by replicas that saw the new primary)
// and an in-flight re-seed aborts at its next stage boundary.
func (p *Primary) Fence(epoch uint64) {
	if epoch <= p.opts.Epoch {
		return
	}
	for {
		cur := p.fenced.Load()
		if epoch <= cur {
			return
		}
		if p.fenced.CompareAndSwap(cur, epoch) {
			break
		}
	}
	for _, rl := range p.links() {
		rl.reviewPin()
	}
}

// superseded reports whether Fence recorded a newer epoch.
func (p *Primary) superseded() bool { return p.fenced.Load() > p.opts.Epoch }

// Status reports the primary view plus replication lag.
func (p *Primary) Status() server.Status {
	st := p.eng.Status()
	st.Epoch = p.opts.Epoch
	p.mu.Lock()
	minApplied := st.Mark
	for _, rl := range p.replicas {
		rl.mu.Lock()
		if rl.applied < minApplied {
			minApplied = rl.applied
		}
		rl.mu.Unlock()
	}
	p.mu.Unlock()
	st.Lag = st.Mark - minApplied
	return st
}

// links returns the attached links (the slice is append-only).
func (p *Primary) links() []*replicaLink {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicas
}

// announce lets the senders ship every frame below mark, which the
// commit that announces it made durable at lane time at. Announcements
// only move forward. Caller holds freezeMu.
func (p *Primary) announce(mark int, at time.Duration) {
	p.mu.Lock()
	if mark > p.announced {
		p.announced, p.announcedAt = mark, at
		p.shipCond.Broadcast()
	}
	p.mu.Unlock()
}

// awaitAnnounced blocks until a mark past cursor is announced and returns
// it with its lane time; ok=false once the primary closes. A batch ending
// at that mark leaves, on a link whose previous ack was delivered at
// linkFree, at max(at, linkFree): when its last frame existed or when the
// link came free, whichever is later. Both are virtual events. The lane's
// Now() at the host moment the sender goroutine runs is neither: the lane
// is shared with the commits and with the checkpoint round that follows
// the quorum's ack, so a sender scheduled a moment late would ship
// "during" a round it does not wait for, the replica's own round would
// start that much later, and the next read from that replica would carry
// the difference into a client's clock — more often the faster the host
// runs the path to the first ack.
func (p *Primary) awaitAnnounced(cursor int) (mark int, at time.Duration, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.announced <= cursor && !p.closed {
		p.shipCond.Wait()
	}
	return p.announced, p.announcedAt, !p.closed
}

// reviewPin is the retention policy, stated once. A link holds an export
// cursor — a pin — on the primary's journal for as long as it is
// attached (across connections: a replica that reboots redials within
// milliseconds), so no checkpoint retires a frame the replica has not
// acknowledged and the replica resumes from its cursor instead of
// re-seeding. The pin is lost, and the link therefore re-seeds once a
// checkpoint passes its cursor, in three cases: the link is quarantined
// (the watchdog already treats it as sick, and its lag must not become
// the primary's memory), the primary is fenced (it will not ship again),
// or the link's backlog holds more payload than a seed would ship — past
// that a seed is the cheaper transfer, and it bounds what a peer can
// make the primary hold whatever the peer does.
func (rl *replicaLink) reviewPin() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.reviewPinLocked()
}

func (rl *replicaLink) reviewPinLocked() {
	if rl.pin != nil && (rl.quarantined || rl.p.superseded() || rl.p.overBudget(rl.pin.Backlog())) {
		rl.pin.Close()
		rl.pin = nil
	}
}

// overBudget reports whether a backlog of payload bytes exceeds what a
// seed would ship: the header's page count times the page size. A
// database file only grows, so the last size seen is a lower bound and
// the header is read again only by a backlog that passes it.
func (p *Primary) overBudget(backlog int64) bool {
	if backlog <= p.seedBytes.Load() {
		return false
	}
	n, err := p.d.SeedBytes()
	if err != nil {
		return true // a source that cannot size a seed must not accumulate for one
	}
	p.seedBytes.Store(n)
	return backlog > n
}

// pinAt (sender only) stands the link's pin at pos, registering one if
// the link holds none, and reports whether [pos, mark) is exportable. The
// policy is reviewed straight after, so a link that may not hold a pin
// keeps it no longer than this call.
func (rl *replicaLink) pinAt(pos int) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.pin == nil {
		rl.pin = rl.p.wal.OpenExportCursor()
	}
	ok := rl.pin.Seek(pos)
	rl.reviewPinLocked()
	return ok
}

// unpin releases the link's pin when its sender stops for good.
func (rl *replicaLink) unpin() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.pin != nil {
		rl.pin.Close()
		rl.pin = nil
	}
}

// run is one replica's sender loop: connect, resume or re-seed, ship.
func (rl *replicaLink) run() {
	defer close(rl.done)
	defer rl.unpin()
	for {
		select {
		case <-rl.quit:
			return
		default:
		}
		if rl.p.superseded() {
			return
		}
		if !rl.serveConn() {
			return
		}
		// Reconnect backoff (real time; the conn may be refused while
		// the replica reboots or the link is partitioned).
		select {
		case <-rl.quit:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// serveConn runs one connection lifetime. Returns false to stop the
// sender for good.
func (rl *replicaLink) serveConn() bool {
	p := rl.p
	conn, err := rl.dial(rl.addr)
	if err != nil {
		return true
	}
	defer conn.Close()
	msg, err := conn.Recv(time.Second)
	if err != nil {
		return true
	}
	h, err := decodeHello(msg)
	if err != nil {
		return true
	}

	cursor, chain := h.applied, h.chain
	// linkFree is the virtual delivery time of the ack that freed the link
	// for the next batch (0 until this conn has carried one).
	var linkFree time.Duration
	needSeed := h.needSeed || h.incarnation != p.opts.Epoch
	if !needSeed {
		// Whether the replica's cursor is still exportable is what standing
		// the pin there answers.
		if rl.pinAt(cursor) {
			rl.noteApplied(cursor, 0) // Recv of the hello already moved the clock
		} else {
			needSeed = true
		}
	}

	for {
		if needSeed {
			// A re-seed is the longest transfer the sender makes, so it
			// re-checks its preconditions at every stage boundary: a
			// fenced primary must not ship a stale-incarnation snapshot
			// (abort for good — the sender is done), and a source that
			// degraded mid-copy must abort and re-schedule rather than
			// seed the replica from a handle that may stop serving
			// snapshot reads at any moment.
			if p.superseded() {
				p.m.Inc(metrics.ReplReseedAborts, 1)
				return false
			}
			if p.d.Degraded() != nil {
				p.m.Inc(metrics.ReplReseedAborts, 1)
				return true
			}
			// The pin stands at or below the snapshot's mark BEFORE the
			// snapshot is taken, so a checkpoint between the snapshot and
			// the first batch cannot force a second seed.
			rl.pinAt(p.wal.Mark())
			snap, err := p.d.ExportPages()
			if err != nil {
				return true
			}
			p.seedBytes.Store(int64(len(snap.Pages)) * int64(snap.PageSize))
			if p.superseded() {
				p.m.Inc(metrics.ReplReseedAborts, 1)
				return false
			}
			if p.d.Degraded() != nil {
				p.m.Inc(metrics.ReplReseedAborts, 1)
				return true
			}
			if err := conn.Send(encodeSeed(p.opts.Epoch, snap)); err != nil {
				return true
			}
			p.m.Inc(metrics.ReplReseeds, 1) // seeds handed to the wire, not attempts on a dead conn
			a, ackAt, _, ok := rl.awaitAck(conn, seedAckPolls(len(snap.Pages)))
			if !ok || !a.ok {
				return true
			}
			cursor, chain = snap.Mark, core.ExportChainSeed(snap.Mark)
			needSeed = false
			rl.pinAt(cursor)
			rl.noteApplied(cursor, ackAt)
			continue
		}

		// Frames committed outside Apply (DDL on the primary's DB) ship
		// with the next announcement, which covers them.
		to, at, open := p.awaitAnnounced(cursor)
		if !open {
			return false
		}
		batch, ok, err := p.d.ExportSince(cursor, to, rl.frames)
		if err != nil {
			return true
		}
		if !ok {
			// A checkpoint passed the cursor while the link held no pin:
			// unhealable gap, re-seed.
			needSeed = true
			continue
		}
		endChain := core.ChainExport(chain, batch)
		rl.wire = encodeFrames(rl.wire[:0], p.opts.Epoch, batch, endChain)
		p.d.ExportDone() // the payloads are in the wire buffer now
		var t0 time.Duration
		if p.opts.Clock != nil {
			t0 = max(at, linkFree)
			err = netsim.SendAt(conn, rl.wire, t0)
		} else {
			t0 = p.now()
			err = conn.Send(rl.wire)
		}
		frames, shipped := len(batch.Frames), 0
		for _, fr := range batch.Frames {
			shipped += len(fr.Payload)
		}
		rl.keepScratch(batch.Frames)
		if err != nil {
			return true
		}
		p.m.Inc(metrics.ReplBatchesShipped, 1)
		p.m.Inc(metrics.ReplFramesShipped, int64(frames))
		p.m.Inc(metrics.ReplBytesShipped, int64(shipped))
		a, ackAt, virt, ok := rl.awaitAck(conn, batchAckPolls)
		if !ok {
			return true
		}
		// Latency is measured against the ack's own virtual delivery
		// time, not the lane's Now() after Recv: the lane is shared by
		// every replica link and by the commits themselves, so whatever
		// advanced it mid-wait — the primary's own checkpoint round, which
		// runs right after the quorum's ack — would bleed into this link's
		// sample and quarantine a healthy replica. A transport without
		// delivery times is sampled on the primary's clock.
		acked := ackAt
		if !virt {
			acked = p.now()
		}
		rl.observeAck(acked - t0)
		if !a.ok {
			needSeed = true
			continue
		}
		cursor, chain = batch.To, endChain
		rl.pinAt(cursor)
		rl.noteApplied(a.applied, ackAt)
		if virt {
			linkFree = ackAt
		}
	}
}

// keepScratch keeps a sent batch's frame list and message buffer for the
// next batch, emptied: the list holds no payload (a page image a
// checkpoint may retire) and neither is kept past its bound.
func (rl *replicaLink) keepScratch(frames []core.ExportFrame) {
	clear(frames)
	rl.frames = frames[:0]
	if cap(rl.frames) > maxKeptFrames {
		rl.frames = nil
	}
	if cap(rl.wire) > maxKeptWire {
		rl.wire = nil
	}
}

// observeAck feeds one send→ack latency sample to the link's tracker
// and applies the quarantine policy: a Degraded tracker (its EWMA over
// AckBudget) leaves the semi-sync quorum; one that recovers (the EWMA
// back at half the budget) is re-admitted. Both transitions wake
// semi-sync waiters — a quarantine can unblock a commit (quorum
// degradation), a re-admit restores the guarantee for the next one.
func (rl *replicaLink) observeAck(d time.Duration) {
	p := rl.p
	rl.ack.Observe(d)
	sick := p.opts.AckBudget > 0 && rl.ack.State() == health.Degraded
	rl.mu.Lock()
	changed := sick != rl.quarantined
	rl.quarantined = sick
	rl.mu.Unlock()
	if !changed {
		return
	}
	if sick {
		p.m.Inc(metrics.ReplicaQuarantines, 1)
		rl.reviewPin()
	} else {
		p.m.Inc(metrics.ReplicaReadmits, 1)
	}
	p.mu.Lock()
	p.ackCond.Broadcast()
	p.mu.Unlock()
}

// AckLatencies reports each replica's send→ack latency EWMA keyed by
// address (tests and status probes).
func (p *Primary) AckLatencies() map[string]time.Duration { return p.acks.EWMAs() }

// An ack is awaited in polls of ackPoll: a frame batch's gets
// batchAckPolls of them.
const (
	ackPoll       = 250 * time.Millisecond
	batchAckPolls = 4
)

// seedAckPolls is the ack wait of a seed of pages pages. The replica
// imports and checkpoints every page before it acks, so the wait grows
// with the seed: four times a batch's, and one poll more per 256 pages.
// Giving up on a seed still being installed redials into a hello that
// carries the old position, and a second full seed.
func seedAckPolls(pages int) int { return 4*batchAckPolls + pages/256 }

// awaitAck reads the replica's ack for the last message, waiting at most
// polls × ackPoll and honouring quit. ok=false means the conn died, went
// silent, or the sender is stopping. The silence bound matters for
// liveness: a partition drops messages silently, so an unacked send on a
// zombie conn would otherwise block the strict send/ack loop forever —
// giving up forces a redial, and the reconnect hello resumes from the
// replica's real cursor.
// On simulated transports it reports the ack's own virtual delivery
// time (virt=true) and leaves the primary's lane where it is: the caller
// measures per-link latency against that time, and the lane moves only
// for the commit whose quorum the ack completes (waitAcks).
func (rl *replicaLink) awaitAck(conn netsim.Conn, polls int) (a ack, at time.Duration, virt, ok bool) {
	for range polls {
		select {
		case <-rl.quit:
			return ack{}, 0, false, false
		default:
		}
		var msg []byte
		var err error
		if rl.p.opts.Clock != nil {
			msg, at, virt, err = netsim.RecvAt(conn, ackPoll)
		} else {
			msg, err = conn.Recv(ackPoll)
		}
		if err == nil {
			a, derr := decodeAck(msg)
			if derr != nil {
				return ack{}, 0, virt, false
			}
			rl.p.m.Inc(metrics.ReplAcks, 1)
			return a, at, virt, true
		}
		if !errors.Is(err, netsim.ErrTimeout) {
			return ack{}, 0, virt, false
		}
	}
	return ack{}, 0, virt, false
}

// noteApplied records a replica ack, delivered at virtual time at, and
// wakes semi-sync waiters.
func (rl *replicaLink) noteApplied(applied int, at time.Duration) {
	rl.mu.Lock()
	if applied > rl.applied {
		rl.applied, rl.ackAt = applied, at
	}
	rl.mu.Unlock()
	rl.p.mu.Lock()
	rl.p.ackCond.Broadcast()
	rl.p.mu.Unlock()
}
