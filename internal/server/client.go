// Client: the retrying half of the admission-control contract. Busy
// responses are retried after the server's advised backoff (jittered,
// exponential, capped), Fenced responses adopt the newer epoch and
// re-discover the primary via STATUS, and a bounded retry budget
// keeps a dead cluster from wedging callers forever. Every failed
// write reports whether its outcome is determinate: an attempt that
// was sent but never definitively answered leaves the op
// "indeterminate" (maybe applied) — the distinction the torture
// oracle's lost-ack rule depends on.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// Dialer opens a conn to a named endpoint (netsim or TCP).
type Dialer func(addr string) (netsim.Conn, error)

// ClientOptions tunes retry behaviour.
type ClientOptions struct {
	// RetryBudget is the max attempts per operation (default 8).
	RetryBudget int
	// RecvTimeout bounds each attempt's real-time wait for a response
	// (default 250ms). On a silently-dropped message this is the only
	// signal to retry.
	RecvTimeout time.Duration
	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between attempts (defaults 100µs / 5ms). A Busy response's
	// advised backoff overrides the exponential term.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Deadline is the server-side execution deadline attached to every
	// request (0 = none).
	Deadline time.Duration
	// ReadAnywhere lets Get/Status use any reachable endpoint instead
	// of requiring the primary (replica-read clients).
	ReadAnywhere bool
	// HedgeDelay enables hedged reads (requires ReadAnywhere and at
	// least two endpoints): when the first replica's answer would land
	// later than the hedge delay, the read is duplicated to a second
	// replica and the earlier answer wins. The delay adapts upward to
	// 2× the chosen replica's observed latency EWMA, so healthy-but-
	// merely-ordinary responses are not hedged. 0 disables hedging.
	HedgeDelay time.Duration
	// Clock is the client's virtual-time lane, required for hedged
	// reads over netsim: hedge outcomes are decided by virtual delivery
	// time, not real arrival order. Nil restricts hedging to the
	// first-response-wins degenerate form on real transports. Breaker
	// windows run on it too; nil means wall time since NewClient.
	Clock *simclock.Clock
	// Seed drives the backoff jitter.
	Seed int64
	// Metrics receives client counters (nil = discarded).
	Metrics *metrics.Counters
}

// Circuit-breaker policy: after breakerFailThreshold consecutive
// dial/probe failures an endpoint is skipped for breakerOpenFor on the
// client's clock; the first attempt after that window is the half-open
// probe — success closes the breaker, failure re-opens it. When every
// endpoint is open the client probes them all anyway: a breaker sheds
// work from a sick endpoint, it must never lock the client out of a
// sick cluster.
const (
	breakerFailThreshold = 3
	breakerOpenFor       = 250 * time.Millisecond
)

type breakerState struct {
	fails     int
	openUntil time.Duration // on c.now()
}

// OpError is a failed operation's outcome. Indeterminate reports
// whether any attempt may have been applied: false means the write
// definitely did not happen; true means the cluster may or may not
// hold it (the caller must treat both as possible).
type OpError struct {
	Indeterminate bool
	Err           error
}

func (e *OpError) Error() string {
	if e.Indeterminate {
		return fmt.Sprintf("indeterminate: %v", e.Err)
	}
	return e.Err.Error()
}

func (e *OpError) Unwrap() error { return e.Err }

// Client is a sequential (NOT goroutine-safe) protocol client: one
// outstanding request at a time, which is what makes request-id
// deduplication on the server a complete at-most-once story.
type Client struct {
	dial  Dialer
	addrs []string
	opts  ClientOptions
	m     *metrics.Counters
	rng   *rand.Rand

	conn   netsim.Conn
	epoch  uint64
	nextID uint64
	// out is the buffer every request is encoded in: one request is
	// outstanding at a time, and Send keeps no reference to it.
	out []byte

	// Gray-failure machinery, on now (health.NodeClock): per-endpoint
	// circuit breakers, cached hedge connections, and per-endpoint
	// latency trackers whose EWMAs order read targets and inform the
	// hedge delay.
	now    func() time.Duration
	brk    map[string]*breakerState
	hconns map[string]netsim.Conn
	lat    *health.Monitor
}

// NewClient builds a client over the given endpoints. The first
// request dials and, for writes, discovers the primary via STATUS.
func NewClient(dial Dialer, addrs []string, opts ClientOptions) *Client {
	if opts.RetryBudget <= 0 {
		opts.RetryBudget = 8
	}
	if opts.RecvTimeout <= 0 {
		opts.RecvTimeout = 250 * time.Millisecond
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Microsecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Millisecond
	}
	m := opts.Metrics
	if m == nil {
		m = &metrics.Counters{}
	}
	now := health.NodeClock(opts.Clock)
	return &Client{
		dial:   dial,
		addrs:  addrs,
		opts:   opts,
		m:      m,
		rng:    rand.New(rand.NewSource(opts.Seed ^ 0x5eed)),
		nextID: 1,
		now:    now,
		brk:    make(map[string]*breakerState),
		hconns: make(map[string]netsim.Conn),
		lat:    health.NewMonitor(health.Options{Now: now, Alpha: 0.3}),
	}
}

// Epoch returns the highest fencing epoch the client has observed.
func (c *Client) Epoch() uint64 { return c.epoch }

// SetEpoch force-adopts an epoch (tests and failover drivers).
func (c *Client) SetEpoch(e uint64) {
	if e > c.epoch {
		c.epoch = e
	}
}

// Close drops the connection and any cached hedge connections.
func (c *Client) Close() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	for addr, conn := range c.hconns {
		_ = conn.Close()
		delete(c.hconns, addr)
	}
}

// Get reads key. A nil error with found=false is a definitive miss.
// The value is the caller's. With hedging configured, a read whose first
// answer would arrive later than the hedge delay is duplicated to a
// second replica and the earlier (virtual-time) answer wins; any
// complication falls back to the plain retry loop.
func (c *Client) Get(table string, key []byte) ([]byte, bool, error) {
	req := request{verb: verbGet, table: table, key: key}
	if c.opts.HedgeDelay > 0 && c.opts.ReadAnywhere && len(c.addrs) > 1 && checkRequest(req) == nil {
		if resp, ok := c.hedgedGet(req); ok {
			return bytes.Clone(resp.value), resp.found, nil
		}
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, false, err
	}
	// The response aliases the conn's receive buffer.
	return bytes.Clone(resp.value), resp.found, nil
}

// Put writes key=value, returning the commit sequence.
func (c *Client) Put(table string, key, value []byte) (uint64, error) {
	resp, err := c.do(request{verb: verbPut, table: table, key: key, value: value})
	if err != nil {
		return 0, err
	}
	return resp.seq, nil
}

// Delete removes key, returning the commit sequence.
func (c *Client) Delete(table string, key []byte) (uint64, error) {
	resp, err := c.do(request{verb: verbDelete, table: table, key: key})
	if err != nil {
		return 0, err
	}
	return resp.seq, nil
}

// Batch applies ops atomically, returning the commit sequence.
func (c *Client) Batch(table string, ops []Op) (uint64, error) {
	resp, err := c.do(request{verb: verbBatch, table: table, ops: ops})
	if err != nil {
		return 0, err
	}
	return resp.seq, nil
}

// Status queries the connected (or any reachable) endpoint.
func (c *Client) Status() (Status, error) {
	resp, err := c.do(request{verb: verbStatus})
	if err != nil {
		return Status{}, err
	}
	return resp.stat, nil
}

func isWrite(verb byte) bool {
	return verb == verbPut || verb == verbDelete || verb == verbBatch
}

// send encodes req into the client's request buffer and sends it on conn.
func (c *Client) send(conn netsim.Conn, req request) error {
	c.out = encodeRequest(reuse(c.out), req)
	return conn.Send(c.out)
}

// do runs one operation through the retry loop. On failure the error
// is always an *OpError. A response's value aliases the conn's receive
// buffer, valid until the conn's next receive.
func (c *Client) do(req request) (response, *OpError) {
	if err := checkRequest(req); err != nil {
		// The request cannot be put on the wire: refused before any
		// attempt, so definitely not applied.
		return response{}, &OpError{Err: err}
	}
	req.id = c.nextID
	c.nextID++
	req.deadline = c.opts.Deadline
	write := isWrite(req.verb)
	indeterminate := false
	var lastErr error

	for attempt := 0; attempt < c.opts.RetryBudget; attempt++ {
		if attempt > 0 {
			c.m.Inc(metrics.ClientRetries, 1)
		}
		if c.conn == nil {
			if err := c.connect(write || !c.opts.ReadAnywhere); err != nil {
				lastErr = err
				c.backoff(attempt, 0, 0)
				continue
			}
		}
		req.epoch = c.epoch
		if err := c.send(c.conn, req); err != nil {
			// A failed send never reached the server whole: the frame
			// dies with the connection. Determinate.
			c.dropConn()
			lastErr = err
			c.backoff(attempt, 0, 0)
			continue
		}
		resp, err := c.recvMatching(req.id, req.verb)
		if err != nil {
			if write {
				// The request may have been executed and only the
				// response lost — sticky until a definitive answer.
				indeterminate = true
			}
			if !errors.Is(err, netsim.ErrTimeout) {
				c.dropConn()
			}
			lastErr = err
			c.backoff(attempt, 0, 0)
			continue
		}
		switch resp.status {
		case stOK:
			return resp, nil
		case stBusy:
			// Definitively not applied; retry after the advised backoff.
			lastErr = fmt.Errorf("busy (%s): %d/%d pages", resp.busy.Watermark, resp.busy.Avail, resp.busy.Hard)
			c.backoff(attempt, resp.busy.Backoff, resp.busy.RetryAfter)
		case stFenced:
			c.SetEpoch(resp.epoch)
			c.dropConn() // re-discover: the primary may have moved
			lastErr = fmt.Errorf("fenced: server epoch %d", resp.epoch)
			c.backoff(attempt, 0, 0)
		case stReadOnly:
			c.dropConn() // wrong endpoint for writes — re-discover
			lastErr = fmt.Errorf("read-only endpoint: %s", resp.msg)
			c.backoff(attempt, 0, 0)
		case stIndeterminate:
			indeterminate = true
			lastErr = fmt.Errorf("indeterminate: %s", resp.msg)
			c.backoff(attempt, 0, 0)
		default: // stErr: a hard, determinate refusal — no retry
			return response{}, &OpError{Indeterminate: indeterminate, Err: errors.New(resp.msg)}
		}
	}
	return response{}, &OpError{
		Indeterminate: indeterminate,
		Err:           fmt.Errorf("retry budget exhausted after %d attempts: %w", c.opts.RetryBudget, lastErr),
	}
}

// recvMatching reads responses until one matches id (stale responses
// from timed-out attempts of EARLIER ops are discarded).
func (c *Client) recvMatching(id uint64, verb byte) (response, error) {
	for i := 0; i < 4; i++ {
		msg, err := c.conn.Recv(c.opts.RecvTimeout)
		if err != nil {
			return response{}, err
		}
		resp, err := decodeResponse(msg, verb)
		if err != nil {
			return response{}, err
		}
		if resp.id == id {
			return resp, nil
		}
	}
	return response{}, fmt.Errorf("no response matching request %d", id)
}

// connect dials endpoints and (for writes) selects the primary with
// the highest epoch via STATUS probes.
func (c *Client) connect(needPrimary bool) error {
	if len(c.addrs) == 1 && !needPrimary {
		conn, err := c.dial(c.addrs[0])
		if err != nil {
			return err
		}
		c.conn = conn
		return nil
	}
	bestAddr := ""
	var bestStat Status
	for _, addr := range c.candidateAddrs() {
		conn, err := c.dial(addr)
		if err != nil {
			c.noteAddrFailure(addr)
			continue
		}
		st, err := c.statusOn(conn)
		_ = conn.Close()
		if err != nil {
			c.noteAddrFailure(addr)
			continue
		}
		c.noteAddrOK(addr)
		c.SetEpoch(st.Epoch)
		if needPrimary && (st.Role != "primary" || st.Degraded) {
			continue
		}
		if bestAddr == "" || st.Epoch > bestStat.Epoch {
			bestAddr, bestStat = addr, st
		}
	}
	if bestAddr == "" {
		return fmt.Errorf("server: no %s reachable", map[bool]string{true: "primary", false: "endpoint"}[needPrimary])
	}
	if needPrimary && bestStat.Epoch < c.epoch {
		return fmt.Errorf("server: reachable primary at stale epoch %d < %d", bestStat.Epoch, c.epoch)
	}
	conn, err := c.dial(bestAddr)
	if err != nil {
		return err
	}
	c.conn = conn
	return nil
}

// statusOn runs one STATUS round-trip on a probe conn.
func (c *Client) statusOn(conn netsim.Conn) (Status, error) {
	id := c.nextID
	c.nextID++
	if err := c.send(conn, request{verb: verbStatus, id: id}); err != nil {
		return Status{}, err
	}
	msg, err := conn.Recv(c.opts.RecvTimeout)
	if err != nil {
		return Status{}, err
	}
	resp, err := decodeResponse(msg, verbStatus)
	if err != nil {
		return Status{}, err
	}
	return resp.stat, nil
}

func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// backoff sleeps a jittered exponential delay; a server-advised delay
// replaces the exponential term (capped at BackoffMax), and an
// explicit retryAfter hint — a server promise that earlier retries are
// pointless — is honored uncapped, with additive jitter so a shed herd
// does not return in lockstep.
func (c *Client) backoff(attempt int, advised, retryAfter time.Duration) {
	d := c.opts.BackoffBase << uint(attempt)
	if advised > 0 {
		d = advised
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	// Full jitter in [d/2, d).
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	if retryAfter > 0 && d < retryAfter {
		d = retryAfter + time.Duration(c.rng.Int63n(int64(retryAfter/8)+1))
	}
	if c.opts.Clock != nil {
		// Virtual-time deployment: charge the full (uncapped) wait to
		// the client's lane and keep the real sleep bounded, like every
		// other virtual stall in the simulation.
		c.opts.Clock.Advance(d)
		if d > 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
	} else if d > time.Second {
		// No virtual clock to charge: a server hint denominated in
		// virtual time can be astronomically large — cap the real sleep
		// so a retry-after can never wedge the caller.
		d = time.Second
	}
	time.Sleep(d)
}

// --- circuit breaker -------------------------------------------------

// addrAllowed reports whether the endpoint's breaker admits an attempt
// (closed, or open past its window — the half-open probe).
func (c *Client) addrAllowed(addr string) bool {
	b := c.brk[addr]
	return b == nil || b.fails < breakerFailThreshold || c.now() > b.openUntil
}

// noteAddrFailure records a dial/probe failure; crossing the threshold
// (re-)opens the breaker.
func (c *Client) noteAddrFailure(addr string) {
	b := c.brk[addr]
	if b == nil {
		b = &breakerState{}
		c.brk[addr] = b
	}
	b.fails++
	if b.fails >= breakerFailThreshold {
		b.openUntil = c.now() + breakerOpenFor
		c.m.Inc(metrics.BreakerOpen, 1)
	}
}

// noteAddrOK closes the endpoint's breaker.
func (c *Client) noteAddrOK(addr string) {
	if b := c.brk[addr]; b != nil {
		b.fails = 0
	}
}

// candidateAddrs is the endpoint list with open breakers filtered out.
// When every breaker is open the full list comes back: the breaker
// sheds work from a sick endpoint, it never locks the client out of a
// sick cluster.
func (c *Client) candidateAddrs() []string {
	open := make([]string, 0, len(c.addrs))
	for _, a := range c.addrs {
		if c.addrAllowed(a) {
			open = append(open, a)
		}
	}
	if len(open) == 0 {
		return c.addrs
	}
	return open
}

// --- hedged reads ----------------------------------------------------

// readOrder returns breaker-admitted endpoints sorted fastest-first by
// latency EWMA (unknown endpoints sort first so they get measured).
// A degrading replica's EWMA inflates until it loses the front spot —
// hedge target selection self-corrects without explicit health pings.
func (c *Client) readOrder() []string {
	addrs := append([]string(nil), c.candidateAddrs()...)
	sort.SliceStable(addrs, func(i, j int) bool {
		return c.lat.Tracker(addrs[i]).EWMA() < c.lat.Tracker(addrs[j]).EWMA()
	})
	return addrs
}

// hedgeDelayFor is the health-informed hedge delay: the configured
// floor, raised to 2× the target's latency EWMA so ordinary responses
// from a healthy replica are never hedged.
func (c *Client) hedgeDelayFor(addr string) time.Duration {
	d := c.opts.HedgeDelay
	if ewma := c.lat.Tracker(addr).EWMA(); ewma*2 > d {
		d = ewma * 2
	}
	return d
}

// hconn returns a cached hedge connection to addr, dialing on first
// use. Hedge conns are separate from the primary conn so hedged reads
// never perturb the write path's request stream.
func (c *Client) hconn(addr string) netsim.Conn {
	if conn, ok := c.hconns[addr]; ok {
		return conn
	}
	conn, err := c.dial(addr)
	if err != nil {
		c.noteAddrFailure(addr)
		return nil
	}
	c.hconns[addr] = conn
	return conn
}

func (c *Client) dropHconn(addr string) {
	if conn, ok := c.hconns[addr]; ok {
		_ = conn.Close()
		delete(c.hconns, addr)
	}
}

// recvAtMatching reads responses off a hedge conn until one matches id,
// WITHOUT advancing the client's clock: it returns the decoded response
// together with its virtual delivery time, leaving the AdvanceTo to the
// hedge arbiter. virt is false on transports without virtual timing.
func (c *Client) recvAtMatching(conn netsim.Conn, id uint64, verb byte) (response, time.Duration, bool, error) {
	for i := 0; i < 4; i++ {
		msg, at, virt, err := netsim.RecvAt(conn, c.opts.RecvTimeout)
		if err != nil {
			return response{}, 0, virt, err
		}
		resp, err := decodeResponse(msg, verb)
		if err != nil {
			return response{}, 0, virt, err
		}
		if resp.id == id {
			return resp, at, virt, nil
		}
	}
	return response{}, 0, true, fmt.Errorf("no response matching request %d", id)
}

// hedgedGet runs one read with hedging. ok=false means the caller must
// fall back to the plain retry loop (no usable OK answer came back —
// the read was NOT applied anywhere in a way that matters; reads are
// idempotent, so re-running is always safe).
//
// The hedge is decided in VIRTUAL time: over netsim every response is
// available in real time almost immediately, carrying the virtual
// delivery timestamp its simulated latency implies. The client sends to
// the fastest-EWMA replica, inspects the response's virtual arrival
// WITHOUT advancing its clock, and only if that arrival exceeds the
// hedge delay does it charge the delay, duplicate the read to the
// second replica, and take whichever answer bears the earlier virtual
// timestamp. A plain Recv on the slow response would drag the client's
// lane clock past the fast one and erase the win.
func (c *Client) hedgedGet(req request) (response, bool) {
	order := c.readOrder()
	if len(order) < 2 {
		return response{}, false
	}
	first, second := order[0], order[1]
	ca := c.hconn(first)
	if ca == nil {
		return response{}, false
	}
	req.id = c.nextID
	c.nextID++
	req.epoch = c.epoch
	req.deadline = c.opts.Deadline
	t0 := c.now()
	if err := c.send(ca, req); err != nil {
		c.dropHconn(first)
		c.noteAddrFailure(first)
		return response{}, false
	}
	respA, atA, virt, errA := c.recvAtMatching(ca, req.id, req.verb)
	if errA != nil {
		c.dropHconn(first)
		c.noteAddrFailure(first)
	} else {
		c.noteAddrOK(first)
	}
	if errA == nil && (!virt || c.opts.Clock == nil) {
		// Real transport: arrival order is the only order there is.
		return respA, respA.status == stOK
	}
	if c.opts.Clock == nil || (errA != nil && !virt) {
		// No virtual clock to arbitrate the hedge (or a recv failure on
		// a real transport): fall back to the plain retry loop, which
		// already walks the replica order. Reads are idempotent.
		return response{}, false
	}
	deadline := t0 + c.hedgeDelayFor(first)
	if errA == nil && atA <= deadline {
		c.opts.Clock.AdvanceTo(atA)
		c.lat.Tracker(first).Observe(atA - t0)
		return respA, respA.status == stOK
	}

	// First answer is virtually late (or lost) — hedge.
	c.m.Inc(metrics.HedgedReads, 1)
	c.opts.Clock.AdvanceTo(deadline)
	type answer struct {
		resp   response
		at     time.Duration
		addr   string
		sentAt time.Duration
	}
	var answers []answer
	if errA == nil {
		answers = append(answers, answer{respA, atA, first, t0})
	}
	if cb := c.hconn(second); cb != nil {
		reqB := req
		reqB.id = c.nextID
		c.nextID++
		if err := c.send(cb, reqB); err != nil {
			c.dropHconn(second)
			c.noteAddrFailure(second)
		} else if respB, atB, _, errB := c.recvAtMatching(cb, reqB.id, reqB.verb); errB != nil {
			c.dropHconn(second)
			c.noteAddrFailure(second)
		} else {
			c.noteAddrOK(second)
			if atB < deadline {
				// The duplicate cannot have answered before it was sent.
				atB = deadline
			}
			answers = append(answers, answer{respB, atB, second, deadline})
		}
	}
	if len(answers) == 0 {
		return response{}, false
	}
	win := answers[0]
	for _, a := range answers[1:] {
		if a.at < win.at {
			win = a
		}
	}
	c.opts.Clock.AdvanceTo(win.at)
	for _, a := range answers {
		// Charge each replica from the time its copy of the read was
		// actually sent — the duplicate went out at the hedge deadline,
		// not t0, and billing it the hedge delay would inflate a healthy
		// hedge target's EWMA on every hedge.
		c.lat.Tracker(a.addr).Observe(a.at - a.sentAt)
	}
	if win.addr == second {
		c.m.Inc(metrics.HedgeWins, 1)
	}
	return win.resp, win.resp.status == stOK
}
