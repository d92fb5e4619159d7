package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/hist"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simclock"
)

// layer names a span's position in a request. Spans are recorded at
// the boundaries the layers already meet at, from outside the program:
// around the public calls the driver makes, and inside decorators of
// server.Engine, netsim.Conn/Listener and server.Dialer.
type layer uint8

const (
	spanCall       layer = iota // driver: one whole operation (root)
	spanConnWait                // client side of a conn: Send call → matching Recv return
	spanSend                    // any decorated conn: inside Send
	spanHandle                  // server side of a conn: Recv return → Send call
	spanApply                   // Engine.Apply on a primary (DBEngine or repl.Primary)
	spanGet                     // Engine.Get on a primary
	spanReplicaGet              // Engine.Get on a replica
	spanShip                    // shipping conn: frames Send → ack Recv
	spanBegin                   // embedded: Begin / BeginConcurrent / BeginRead
	spanOp                      // embedded: Insert/Update/Delete/Get inside a transaction
	spanCommit                  // embedded: Commit
	spanScan                    // embedded: ScanRange
	nLayers
)

var layerNames = [nLayers]string{
	"call", "conn_wait", "send", "handle", "apply", "get",
	"replica_get", "ship", "begin", "op", "commit", "scan",
}

// parents is the static span tree: which span's interval contains
// which. A layer's self time is its spans minus its children's.
var parents = [nLayers]layer{
	spanCall: spanCall, spanConnWait: spanCall, spanSend: spanConnWait,
	spanHandle: spanConnWait, spanApply: spanHandle, spanGet: spanHandle,
	spanReplicaGet: spanHandle, spanShip: spanApply,
	spanBegin: spanCall, spanOp: spanCall, spanCommit: spanCall, spanScan: spanCall,
}

// span is one recorded interval. Host times are ns since the tracer's
// epoch; virtual times are the recording side's simclock reading, 0
// where that side has no clock (real TCP).
type span struct {
	Req    uint64 `json:"req"`
	Layer  layer  `json:"layer"`
	Parent layer  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	VStart int64  `json:"vstart_ns"`
	VEnd   int64  `json:"vend_ns"`
}

// ringSize spans are kept; older ones are overwritten. The per-layer
// table is computed from running sums, so it covers every span of the
// window, not only the ones still in the ring.
const ringSize = 1 << 15

type layerSum struct {
	mu    sync.Mutex
	host  hist.H
	vsum  int64
	bytes int64 // spanSend only: payload bytes
}

// tracer collects spans in memory and writes nothing until the window
// has closed. A nil *tracer records nothing; an untraced run never
// builds one, and its engines, listeners and dialers are the plain
// ones.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	// req is the operation in flight. The served workloads are closed
	// loops with one outstanding request, so server-side spans can take
	// their request id from here without the wire carrying it.
	req  atomic.Uint64
	next atomic.Uint64
	ring []span
	sums [nLayers]layerSum
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ring: make([]span, ringSize)}
}

func vnow(c *simclock.Clock) int64 {
	if c == nil {
		return 0
	}
	return int64(c.Now())
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// record stores one finished span.
func (t *tracer) record(l layer, req uint64, start, end time.Time, vstart, vend int64) {
	s := span{
		Req: req, Layer: l, Parent: parents[l],
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		VStart: vstart, VEnd: vend,
	}
	t.ring[(t.next.Add(1)-1)%ringSize] = s
	sum := &t.sums[l]
	sum.mu.Lock()
	sum.host.Observe(s.End - s.Start)
	sum.vsum += vend - vstart
	sum.mu.Unlock()
}

// hostNs is the total host time of a layer's spans; count their number.
func (t *tracer) hostNs(l layer) float64 {
	return t.sums[l].host.Mean() * float64(t.sums[l].host.Count())
}

func (t *tracer) count(l layer) float64 { return float64(t.sums[l].host.Count()) }

// dump writes the ring's spans, oldest first, and the per-layer table.
func (t *tracer) dump(path string, table map[string]metricValue) error {
	n := t.next.Load()
	spans := make([]span, 0, ringSize)
	if n > ringSize {
		spans = append(spans, t.ring[n%ringSize:]...)
		spans = append(spans, t.ring[:n%ringSize]...)
	} else {
		spans = append(spans, t.ring[:n]...)
	}
	out := struct {
		Layers   [nLayers]string        `json:"layer_names"`
		Recorded uint64                 `json:"spans_recorded"`
		PerLayer map[string]metricValue `json:"per_layer"`
		Spans    []span                 `json:"spans"`
	}{layerNames, n, table, spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- decorators ------------------------------------------------------

// tracedEngine records a span around Apply and Get of the engine a
// server executes requests on.
type tracedEngine struct {
	server.Engine
	t        *tracer
	clock    *simclock.Clock
	getLayer layer
}

func (e *tracedEngine) Apply(ctx context.Context, table string, ops []server.Op) (uint64, error) {
	if !e.t.enabled() {
		return e.Engine.Apply(ctx, table, ops)
	}
	t0, v0 := time.Now(), vnow(e.clock)
	seq, err := e.Engine.Apply(ctx, table, ops)
	e.t.record(spanApply, e.t.req.Load(), t0, time.Now(), v0, vnow(e.clock))
	return seq, err
}

func (e *tracedEngine) Get(table string, key []byte) ([]byte, bool, error) {
	if !e.t.enabled() {
		return e.Engine.Get(table, key)
	}
	t0 := time.Now()
	v, found, err := e.Engine.Get(table, key)
	e.t.record(e.getLayer, e.t.req.Load(), t0, time.Now(), 0, 0)
	return v, found, err
}

// traceEngine decorates eng when tracing; otherwise it is eng itself.
func (t *tracer) traceEngine(eng server.Engine, clock *simclock.Clock, getLayer layer) server.Engine {
	if t == nil {
		return eng
	}
	return &tracedEngine{Engine: eng, t: t, clock: clock, getLayer: getLayer}
}

// tracedConn decorates one end of a conn. between is the span that
// runs from one direction's message to the other's: on a client's end
// Send→Recv (the wait for the reply), on a server's end Recv→Send (the
// handling of the request), on a shipping conn Send→Recv (frames →
// ack).
type tracedConn struct {
	netsim.Conn
	t       *tracer
	clock   *simclock.Clock
	between layer
	// start of the open between-span; one goroutine uses a conn end at
	// a time, so these need no lock.
	t0   time.Time
	v0   int64
	open bool
}

func (c *tracedConn) Send(msg []byte) error {
	if !c.t.enabled() {
		return c.Conn.Send(msg)
	}
	now := time.Now()
	if c.between == spanHandle {
		if c.open {
			c.t.record(spanHandle, c.t.req.Load(), c.t0, now, c.v0, vnow(c.clock))
			c.open = false
		}
	} else {
		c.t0, c.v0, c.open = now, vnow(c.clock), true
	}
	err := c.Conn.Send(msg)
	c.t.record(spanSend, c.t.req.Load(), now, time.Now(), 0, 0)
	sum := &c.t.sums[spanSend]
	sum.mu.Lock()
	sum.bytes += int64(len(msg))
	sum.mu.Unlock()
	return err
}

// received closes or opens the between-span after a successful
// receive; vend is the message's virtual delivery time.
func (c *tracedConn) received(vend int64) {
	if !c.t.enabled() {
		return
	}
	now := time.Now()
	if c.between == spanHandle {
		c.t0, c.v0, c.open = now, vend, true
	} else if c.open {
		c.t.record(c.between, c.t.req.Load(), c.t0, now, c.v0, vend)
		c.open = false
	}
}

func (c *tracedConn) Recv(timeout time.Duration) ([]byte, error) {
	msg, err := c.Conn.Recv(timeout)
	if err == nil {
		c.received(vnow(c.clock))
	}
	return msg, err
}

// tracedSimConn adds the virtual-delivery-time receive that
// netsim.RecvAt looks for, so decorating a simulated conn does not
// hide its timing from repl.Primary and server.Client.
type tracedSimConn struct{ tracedConn }

func (c *tracedSimConn) RecvAt(timeout time.Duration) ([]byte, time.Duration, error) {
	msg, at, _, err := netsim.RecvAt(c.Conn, timeout)
	if err == nil {
		c.received(int64(at))
	}
	return msg, at, err
}

func (t *tracer) traceConn(c netsim.Conn, clock *simclock.Clock, between layer) netsim.Conn {
	tc := tracedConn{Conn: c, t: t, clock: clock, between: between}
	if _, sim := c.(interface {
		RecvAt(time.Duration) ([]byte, time.Duration, error)
	}); sim {
		return &tracedSimConn{tc}
	}
	return &tc
}

// traceDialer decorates the conns dial opens; clock is the dialing
// side's lane.
func (t *tracer) traceDialer(dial server.Dialer, clock *simclock.Clock, between layer) server.Dialer {
	if t == nil {
		return dial
	}
	return func(addr string) (netsim.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return t.traceConn(c, clock, between), nil
	}
}

type tracedListener struct {
	netsim.Listener
	t     *tracer
	clock *simclock.Clock
}

func (l *tracedListener) Accept(timeout time.Duration) (netsim.Conn, error) {
	c, err := l.Listener.Accept(timeout)
	if err != nil {
		return nil, err
	}
	return l.t.traceConn(c, l.clock, spanHandle), nil
}

// traceListener decorates the conns l accepts as server ends.
func (t *tracer) traceListener(l netsim.Listener, clock *simclock.Clock) netsim.Listener {
	if t == nil {
		return l
	}
	return &tracedListener{Listener: l, t: t, clock: clock}
}
