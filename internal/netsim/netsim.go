// Package netsim is the wire-level sibling of memsim and blockdev: a
// simulated, simclock-driven message network with fault injection
// designed in from the first line. Endpoints exchange whole messages
// over paired in-memory conns; a seeded per-link fault model injects
// latency, jitter, drops, reordering, partitions and mid-stream cuts,
// so the serving and replication layers are tortured against the same
// class of adversary the storage layers already face — without real
// sockets. A thin TCP binding (tcp.go) exposes the same Conn/Listener
// interfaces over real sockets for cmd/nvwal-server.
//
// Timing: each message is stamped deliverAt = sender-clock now +
// sampled latency; Recv advances the receiver's clock to deliverAt
// (simclock.AdvanceTo — a monotone max, so lanes compose). Blocking
// semantics are real-time (condition variables), which keeps the
// simulation live under goroutine concurrency; optional real-time
// receive timeouts bound waits on links that may have silently
// dropped traffic.
//
// Fault semantics per link (sampled from the link's seeded rng):
//   - DropRate: the message is silently lost (the sender still pays
//     the send; request/response protocols recover by retrying).
//   - ReorderRate: the message is enqueued BEFORE the last message
//     still queued at the receiver, modelling datagram reordering.
//   - CutRate: the connection dies mid-message — the message is lost
//     and both endpoints see ErrClosed from then on, modelling a
//     connection reset. In-flight undelivered messages are purged.
//   - Partitions: while two endpoint names are partitioned, messages
//     between them black-hole silently (no error — exactly the
//     asymmetry that makes distributed timeouts hard).
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/timedcond"
)

// Config is one link's fault model. The zero value is a perfect,
// zero-latency wire.
type Config struct {
	// Latency is the base one-way delivery latency charged to virtual
	// time; Jitter adds a uniform [0, Jitter) on top, per message.
	Latency time.Duration
	Jitter  time.Duration
	// DropRate, ReorderRate and CutRate are per-message probabilities
	// in [0, 1].
	DropRate    float64
	ReorderRate float64
	CutRate     float64
	// StallRate/StallDelay model gray failures: with probability
	// StallRate a message is delivered StallDelay late — a bufferbloat
	// spike, a retransmission burst, a link briefly saturated. Unlike
	// DropRate the message DOES arrive, which is what makes slow links
	// harder to defend against than dead ones.
	StallRate  float64
	StallDelay time.Duration
}

// Network is a named-endpoint message fabric. All methods are safe for
// concurrent use.
type Network struct {
	clock *simclock.Clock
	m     *metrics.Counters
	// m's two per-message cells, bound in New; the fault counters go by
	// name.
	cMessages, cBytes *metrics.Cell

	mu        sync.Mutex
	rng       *rand.Rand
	def       Config
	links     map[[2]string]Config // directional override, [from, to]
	clocks    map[string]*simclock.Clock
	listeners map[string]*listener
	cut       map[[2]string]bool // partitioned pairs (unordered key)
	isolated  map[string]bool
}

// Errors surfaced by conns and listeners.
var (
	ErrClosed    = errors.New("netsim: connection closed")
	ErrNoPeer    = errors.New("netsim: no listener at that name")
	ErrTimeout   = errors.New("netsim: receive timed out")
	ErrNetClosed = errors.New("netsim: listener closed")
)

// New creates a network whose messages are timed against clock and
// whose fault draws derive from seed. cfg is the default link model;
// SetLink overrides it per directional pair.
func New(clock *simclock.Clock, cfg Config, seed int64, m *metrics.Counters) *Network {
	if m == nil {
		m = &metrics.Counters{}
	}
	return &Network{
		clock:     clock,
		m:         m,
		cMessages: m.Cell(metrics.NetMessages),
		cBytes:    m.Cell(metrics.NetBytes),
		rng:       rand.New(rand.NewSource(seed)),
		def:       cfg,
		links:     make(map[[2]string]Config),
		clocks:    make(map[string]*simclock.Clock),
		listeners: make(map[string]*listener),
		cut:       make(map[[2]string]bool),
		isolated:  make(map[string]bool),
	}
}

// Register binds an endpoint name to its own clock (a lane, usually);
// Recv at that endpoint advances this clock. Unregistered endpoints
// use the network clock.
func (n *Network) Register(name string, clock *simclock.Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clocks[name] = clock
}

// SetLink overrides the fault model for messages flowing from -> to.
func (n *Network) SetLink(from, to string, cfg Config) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]string{from, to}] = cfg
}

// Partition black-holes traffic between a and b (both directions)
// until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[pairKey(a, b)] = true
}

// Heal removes the a<->b partition.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, pairKey(a, b))
}

// Isolate black-holes ALL traffic to and from name — the external view
// of a machine losing power. Existing conns stay allocated but no
// message crosses; close them via CutNode for a hard reset.
func (n *Network) Isolate(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[name] = true
}

// Rejoin lifts an isolation.
func (n *Network) Rejoin(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, name)
}

// HealAll lifts every partition and isolation.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[[2]string]bool)
	n.isolated = make(map[string]bool)
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Listen binds name. One listener per name; a second Listen on the
// same name fails until the first closes.
func (n *Network) Listen(name string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[name]; ok {
		return nil, fmt.Errorf("netsim: name %q already bound", name)
	}
	l := &listener{net: n, name: name}
	l.cond = timedcond.New(&l.mu)
	n.listeners[name] = l
	return l, nil
}

// Dial connects from -> to, returning the initiator's end. The
// accepted peer end is delivered to the listener at to. Dialing an
// isolated or partitioned endpoint fails with ErrNoPeer — in a real
// network a SYN to a dead host times out; the caller's retry loop is
// the model for that.
func (n *Network) Dial(from, to string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[to]
	blocked := n.isolated[from] || n.isolated[to] || n.cut[pairKey(from, to)]
	n.mu.Unlock()
	if !ok || blocked {
		return nil, ErrNoPeer
	}
	a, b := n.pair(from, to)
	if !l.deliver(b) {
		return nil, ErrNoPeer
	}
	return a, nil
}

// pair builds the two halves of a connection.
func (n *Network) pair(from, to string) (*conn, *conn) {
	shared := &connShared{net: n}
	a := &conn{shared: shared, local: from, remote: to}
	b := &conn{shared: shared, local: to, remote: from}
	a.peer, b.peer = b, a
	a.cond = timedcond.New(&a.mu)
	b.cond = timedcond.New(&b.mu)
	return a, b
}

// clockFor returns the endpoint's registered clock (or the network's).
func (n *Network) clockFor(name string) *simclock.Clock {
	if c, ok := n.clocks[name]; ok {
		return c
	}
	return n.clock
}

// Conn is one end of a message connection.
//
// Buffers: Send does not retain msg once it returns (the simulated wire
// copies it, the TCP binding writes it before returning), so a sender may
// encode every message into one buffer it owns. The slice Recv or RecvAt
// returns is valid until the next Recv, RecvAt or Close on that conn,
// which may reuse its memory for the next message; a caller that keeps
// bytes past that point copies them.
type Conn interface {
	// Send enqueues one whole message toward the peer. A nil error
	// means the message was handed to the wire — NOT that it will
	// arrive (drops and partitions are silent).
	Send(msg []byte) error
	// Recv blocks for the next message. timeout bounds the real-time
	// wait (0 = block until a message or close); expiry returns
	// ErrTimeout with the conn still usable.
	Recv(timeout time.Duration) ([]byte, error)
	// Close tears the connection down at both ends; undelivered
	// messages are purged (they die with the sockets).
	Close() error
	LocalName() string
	RemoteName() string
}

// Listener accepts inbound conns at a name.
type Listener interface {
	// Accept blocks for the next inbound conn. timeout bounds the
	// real-time wait (0 = block); expiry returns ErrTimeout.
	Accept(timeout time.Duration) (Conn, error)
	Close() error
	Addr() string
}

// connShared is the state both halves share.
type connShared struct {
	net  *Network
	mu   sync.Mutex
	dead bool
}

type message struct {
	payload   []byte
	deliverAt time.Duration
}

type conn struct {
	shared *connShared
	peer   *conn
	local  string
	remote string

	mu   sync.Mutex
	cond *timedcond.Cond
	// inbox[head:] are the undelivered messages, oldest first. The array
	// is reused: a receive advances head, and the queue restarts at the
	// front of the array whenever it empties (compacting first if it
	// fills while a prefix is spent), so a conn in steady request/response
	// traffic appends without allocating.
	inbox  []message
	head   int
	closed bool
	// held is the payload the last receive returned, which the caller may
	// read until its next receive; spares are earlier ones (at most
	// maxSpares), which the peer's sends fill when one is large enough, so
	// steady traffic — a few messages in flight, of varying size — copies
	// each message into a buffer the conn already has.
	held   []byte
	spares [][]byte
}

// maxSpares bounds the buffers a conn keeps for its peer's sends.
const maxSpares = 4

// takeSpare returns an empty spare buffer that holds n bytes, or nil.
// Caller holds c.mu.
func (c *conn) takeSpare(n int) []byte {
	for i, b := range c.spares {
		if cap(b) >= n {
			last := len(c.spares) - 1
			c.spares[i], c.spares[last] = c.spares[last], nil
			c.spares = c.spares[:last]
			return b[:0]
		}
	}
	return nil
}

// keepSpare adds b to the spares; when they are full, b replaces the
// smallest if it is larger. As with the TCP binding's send buffer, one
// large message is not kept per conn. Caller holds c.mu.
func (c *conn) keepSpare(b []byte) {
	if b == nil || cap(b) > connBuf {
		return
	}
	if len(c.spares) < maxSpares {
		c.spares = append(c.spares, b)
		return
	}
	small := 0
	for i := range c.spares {
		if cap(c.spares[i]) < cap(c.spares[small]) {
			small = i
		}
	}
	if cap(c.spares[small]) < cap(b) {
		c.spares[small] = b
	}
}

// enqueue adds m to the inbox, before the last queued message when
// reorder is set and one is queued (it reports whether it reordered).
// Caller holds c.mu.
func (c *conn) enqueue(m message, reorder bool) bool {
	if c.head > 0 && len(c.inbox) == cap(c.inbox) {
		n := copy(c.inbox, c.inbox[c.head:])
		clear(c.inbox[n:])
		c.inbox, c.head = c.inbox[:n], 0
	}
	if !reorder || len(c.inbox) == c.head {
		c.inbox = append(c.inbox, m)
		return false
	}
	last := c.inbox[len(c.inbox)-1]
	c.inbox[len(c.inbox)-1] = m
	c.inbox = append(c.inbox, last)
	return true
}

// next waits, up to timeout of real time (0 = no bound), for the oldest
// undelivered message and removes it from the inbox.
func (c *conn) next(timeout time.Duration) (message, error) {
	deadline := timedcond.Deadline(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.head == len(c.inbox) && !c.closed {
		if c.cond.WaitUntil(deadline) && c.head == len(c.inbox) && !c.closed {
			return message{}, ErrTimeout
		}
	}
	if c.head == len(c.inbox) {
		return message{}, ErrClosed
	}
	m := c.inbox[c.head]
	c.inbox[c.head] = message{}
	if c.head++; c.head == len(c.inbox) {
		c.inbox, c.head = c.inbox[:0], 0
	}
	// The caller is done with the previous payload.
	c.keepSpare(c.held)
	c.held = m.payload
	return m, nil
}

func (c *conn) LocalName() string  { return c.local }
func (c *conn) RemoteName() string { return c.remote }

func (c *conn) Send(msg []byte) error { return c.SendAt(msg, -1) }

// SendAt is Send with the message's virtual send time supplied by the
// caller instead of read off the sender's lane at whatever host moment
// the goroutine got to run (at < 0 reads the lane, which is Send). A
// sender whose lane is shared with other work — a shipping goroutine
// beside the commits and checkpoint rounds of its node — knows when, in
// virtual time, its message became sendable; the lane's Now() also
// holds everything else the node did before the goroutine was scheduled.
func (c *conn) SendAt(msg []byte, at time.Duration) error {
	n := c.shared.net

	c.shared.mu.Lock()
	dead := c.shared.dead
	c.shared.mu.Unlock()
	if dead {
		return ErrClosed
	}

	n.mu.Lock()
	cfg, ok := n.links[[2]string{c.local, c.remote}]
	if !ok {
		cfg = n.def
	}
	blocked := n.isolated[c.local] || n.isolated[c.remote] || n.cut[pairKey(c.local, c.remote)]
	var cutNow, dropNow, reorderNow bool
	if !blocked {
		if cfg.CutRate > 0 && n.rng.Float64() < cfg.CutRate {
			cutNow = true
		} else if cfg.DropRate > 0 && n.rng.Float64() < cfg.DropRate {
			dropNow = true
		} else if cfg.ReorderRate > 0 && n.rng.Float64() < cfg.ReorderRate {
			reorderNow = true
		}
	}
	lat := cfg.Latency
	if cfg.Jitter > 0 {
		lat += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	stalled := false
	if cfg.StallRate > 0 && cfg.StallDelay > 0 && n.rng.Float64() < cfg.StallRate {
		lat += cfg.StallDelay
		stalled = true
	}
	sendClock := n.clockFor(c.local)
	n.mu.Unlock()

	n.cMessages.Add(1)
	n.cBytes.Add(int64(len(msg)))
	// The send itself costs the sender its share of the latency — wire
	// time is virtual-clock time like NVRAM write-backs are.
	if at < 0 {
		at = sendClock.Now()
	}
	deliverAt := at + lat

	if blocked {
		// Black hole: silently gone, conn stays up.
		n.m.Inc(metrics.NetDropped, 1)
		return nil
	}
	if cutNow {
		n.m.Inc(metrics.NetCuts, 1)
		c.teardown()
		return ErrClosed
	}
	if dropNow {
		n.m.Inc(metrics.NetDropped, 1)
		return nil
	}
	if stalled {
		// Counted only once the message will actually be delivered — a
		// stall on a send that is then blackholed/cut/dropped is never
		// experienced by the receiver.
		n.m.Inc(metrics.SlowFaultStalls, 1)
		n.m.Inc(metrics.SlowFaultStallNs, cfg.StallDelay.Nanoseconds())
	}

	p := c.peer
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	cp := append(p.takeSpare(len(msg)), msg...)
	if p.enqueue(message{payload: cp, deliverAt: deliverAt}, reorderNow) {
		n.m.Inc(metrics.NetReordered, 1)
	}
	p.cond.Signal()
	p.mu.Unlock()
	return nil
}

func (c *conn) Recv(timeout time.Duration) ([]byte, error) {
	m, err := c.next(timeout)
	if err != nil {
		return nil, err
	}
	// Charge the wire latency to the receiver's clock: delivery cannot
	// precede the send plus flight time. AdvanceTo is a monotone max,
	// so a receiver already past deliverAt pays nothing extra.
	c.shared.net.mu.Lock()
	clk := c.shared.net.clockFor(c.local)
	c.shared.net.mu.Unlock()
	clk.AdvanceTo(m.deliverAt)
	return m.payload, nil
}

// RecvAt is Recv without the clock advance: it returns the next message
// together with its virtual delivery time and leaves the AdvanceTo to
// the caller. Hedged-read clients need this — the hedge must pick the
// response with the EARLIER virtual arrival, and a plain Recv on the
// loser would drag the receiver's clock past the winner's.
func (c *conn) RecvAt(timeout time.Duration) ([]byte, time.Duration, error) {
	m, err := c.next(timeout)
	if err != nil {
		return nil, 0, err
	}
	return m.payload, m.deliverAt, nil
}

// SendAt sends on any Conn, at virtual time at when the transport tracks
// virtual time and with the conn's plain Send when it does not (the TCP
// binding, or a decorator that hides the method).
func SendAt(c Conn, msg []byte, at time.Duration) error {
	type sendAtConn interface {
		SendAt(msg []byte, at time.Duration) error
	}
	if sc, has := c.(sendAtConn); has {
		return sc.SendAt(msg, at)
	}
	return c.Send(msg)
}

// RecvAt receives on any Conn, reporting the message's virtual delivery
// time when the transport tracks one. ok=false means the conn has no
// virtual timing (the TCP binding): at is zero and the message was
// received with the conn's plain semantics.
func RecvAt(c Conn, timeout time.Duration) (msg []byte, at time.Duration, ok bool, err error) {
	type recvAtConn interface {
		RecvAt(timeout time.Duration) ([]byte, time.Duration, error)
	}
	if rc, has := c.(recvAtConn); has {
		msg, at, err = rc.RecvAt(timeout)
		return msg, at, true, err
	}
	msg, err = c.Recv(timeout)
	return msg, 0, false, err
}

func (c *conn) Close() error {
	c.teardown()
	return nil
}

// teardown kills both halves and purges undelivered messages.
func (c *conn) teardown() {
	c.shared.mu.Lock()
	already := c.shared.dead
	c.shared.dead = true
	c.shared.mu.Unlock()
	if already {
		return
	}
	for _, half := range [2]*conn{c, c.peer} {
		half.mu.Lock()
		half.closed = true
		half.inbox, half.head = nil, 0
		half.cond.Broadcast()
		half.mu.Unlock()
	}
}

type listener struct {
	net  *Network
	name string

	mu      sync.Mutex
	cond    *timedcond.Cond
	backlog []*conn
	closed  bool
}

func (l *listener) Addr() string { return l.name }

// deliver hands an inbound conn half to the accept queue.
func (l *listener) deliver(c *conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.backlog = append(l.backlog, c)
	l.cond.Signal()
	return true
}

func (l *listener) Accept(timeout time.Duration) (Conn, error) {
	deadline := timedcond.Deadline(timeout)
	l.mu.Lock()
	expired := false
	for len(l.backlog) == 0 && !l.closed && !expired {
		expired = l.cond.WaitUntil(deadline)
	}
	if len(l.backlog) == 0 {
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return nil, ErrNetClosed
		}
		return nil, ErrTimeout
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	l.mu.Unlock()
	return c, nil
}

func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	backlog := l.backlog
	l.backlog = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	for _, c := range backlog {
		c.teardown()
	}
	l.net.mu.Lock()
	if l.net.listeners[l.name] == l {
		delete(l.net.listeners, l.name)
	}
	l.net.mu.Unlock()
	return nil
}
