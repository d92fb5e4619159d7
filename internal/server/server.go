// Server: per-connection sessions over netsim conns (simulated or
// real TCP), feeding an Engine. Admission control sheds writes BEFORE
// backpressure stalls compound: a virtual-clock token bucket bounds
// the sustained write rate, and a pressure probe refuses writes
// outright once the NVRAM heap is below its hard watermark — both
// return a retryable Busy with machine-readable backoff advice rather
// than letting the request queue up behind a stalled commit. Requests
// carry a fencing epoch; writes with a stale epoch are refused so a
// deposed primary's clients cannot write history the promoted replica
// no longer honours.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// ErrIndeterminate marks a commit whose outcome is unknown at the
// time the error is raised (e.g. a replica-ack wait expired after the
// local commit). Engines wrap it; the server maps it to the
// Indeterminate wire status.
var ErrIndeterminate = errors.New("server: commit outcome indeterminate")

// ErrReadOnly marks an engine that cannot execute writes (a replica,
// or a primary latched degraded).
var ErrReadOnly = errors.New("server: endpoint is read-only")

// Engine executes requests for a Server. Implementations: DBEngine
// (a local db.DB), repl.Primary (local commit + log shipping),
// repl.Replica (snapshot reads at the applied mark); all three are
// AppendGetters as well. A key, and the ops
// with their keys and values, alias the request as it was received:
// they are valid for the call only, and an engine that keeps one copies
// it.
type Engine interface {
	// Get reads the latest readable version of key.
	Get(table string, key []byte) ([]byte, bool, error)
	// Apply atomically applies ops as one transaction and returns its
	// commit sequence. ctx bounds backpressure stalls and ack waits.
	Apply(ctx context.Context, table string, ops []Op) (uint64, error)
	// Status reports role, fencing epoch and replication marks.
	Status() Status
}

// AppendGetter is an Engine whose reads can append the value to a buffer
// the caller passes. The server serves a GET through it when its engine
// has it: the value goes from the page image straight into the response
// frame, where Engine.Get's copy would be made only to be copied again.
// A missing key or an error returns dst as passed.
type AppendGetter interface {
	AppendGet(dst []byte, table string, key []byte) ([]byte, bool, error)
}

// Options configures a Server.
type Options struct {
	// Epoch is the server's fencing epoch; write requests carrying a
	// different epoch are refused with the Fenced status.
	Epoch uint64
	// ReadOnly refuses all writes (replica endpoints).
	ReadOnly bool
	// WriteRate bounds sustained writes/sec against virtual time via a
	// token bucket (0 = unlimited). WriteBurst is the bucket depth
	// (default 8 when WriteRate > 0).
	WriteRate  float64
	WriteBurst int
	// Clock times the token bucket (required when WriteRate > 0).
	Clock *simclock.Clock
	// Pressure, when set, is probed before every write; if the heap is
	// below the hard watermark the write is shed immediately with
	// Busy advice instead of queueing behind a stall. Wire it to
	// db.DB.Pressure.
	Pressure func() (avail, soft, hard int, ok bool)
	// Metrics receives server counters (nil = discarded).
	Metrics *metrics.Counters
}

// Server accepts conns and runs one session per conn.
type Server struct {
	eng  Engine
	app  AppendGetter // eng, when it appends; nil otherwise
	opts Options
	m    *metrics.Counters

	mu       sync.Mutex
	lis      netsim.Listener
	conns    map[netsim.Conn]struct{}
	closed   bool
	tokens   float64
	lastFill time.Duration

	wg sync.WaitGroup
}

// New builds a server over engine. Call Serve to start accepting.
func New(engine Engine, opts Options) *Server {
	m := opts.Metrics
	if m == nil {
		m = &metrics.Counters{}
	}
	if opts.WriteRate > 0 && opts.WriteBurst <= 0 {
		opts.WriteBurst = 8
	}
	s := &Server{
		eng:    engine,
		opts:   opts,
		m:      m,
		conns:  make(map[netsim.Conn]struct{}),
		tokens: float64(opts.WriteBurst),
	}
	s.app, _ = engine.(AppendGetter)
	if opts.Clock != nil {
		s.lastFill = opts.Clock.Now()
	}
	return s
}

// Serve accepts conns on l until l or the server closes. Run it in a
// goroutine; it returns after the accept loop exits.
func (s *Server) Serve(l netsim.Listener) {
	s.mu.Lock()
	s.lis = l
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// Close ran before this goroutine did and found no listener to
		// close; leaving l open would keep its name bound.
		_ = l.Close()
		return
	}
	for {
		c, err := l.Accept(0)
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.session(c)
	}
}

// Close stops accepting, tears down all conns and waits for sessions.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lis := s.lis
	conns := make([]netsim.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// keptOps bounds the ops array a session reuses from one BATCH to the
// next; one larger batch gets an array of its own.
const keptOps = 1 << 10

// session serves one connection: a strict request/response loop with
// at-most-once execution per request id. The client sends one request
// at a time and retries with the SAME id after a timeout; if the
// original response was computed but lost, the cached copy is resent
// without re-executing the write.
//
// Nothing here allocates per request in steady state: the request is
// decoded where the conn received it, a write's ops go in one reused
// array, and every response is built in one reused buffer.
func (s *Server) session(c netsim.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
		s.wg.Done()
	}()
	var (
		lastID uint64
		// resp is the buffer every response is built in, and the dedup
		// cache: it holds lastID's response until a new id rebuilds it.
		resp []byte
		// ops is a write's ops: a BATCH's, decoded into it, or a PUT's or
		// DELETE's one.
		ops   = make([]Op, 0, 1)
		table string // the previous request's, so decoding can reuse it
	)
	for {
		msg, err := c.Recv(0)
		if err != nil {
			return
		}
		req, err := decodeRequest(msg, table, ops)
		if err != nil {
			clear(req.ops)
			// Built apart: resp still holds lastID's response.
			_ = c.Send(respMsg(nil, stErr, req.id, err.Error()))
			continue
		}
		table = req.table
		if n := cap(req.ops); n > cap(ops) && n <= keptOps {
			ops = req.ops[:0]
		}
		if resp == nil || req.id != lastID { // a duplicate is resent, never re-executed
			resp, lastID = s.handle(reuse(resp), req, ops), req.id
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// handle executes one decoded request and appends its response to dst.
// ops is the session's scratch for a write's ops.
func (s *Server) handle(dst []byte, req request, ops []Op) []byte {
	s.m.Inc(metrics.ServerRequests, 1)
	switch req.verb {
	case verbStatus:
		return respOKStatus(dst, req.id, s.eng.Status())
	case verbGet:
		return s.handleGet(dst, req)
	case verbPut, verbDelete, verbBatch:
		return s.handleWrite(dst, req, ops)
	default:
		return respMsg(dst, stErr, req.id, "server: unknown verb")
	}
}

// handleGet appends a GET's response to dst. An AppendGetter engine
// appends the value behind the header, the found byte and a length
// placeholder, which is patched once the value's length is known; a miss
// or an error rewinds to dst, so the frame never carries part of a value.
func (s *Server) handleGet(dst []byte, req request) []byte {
	if s.app == nil {
		v, found, err := s.eng.Get(req.table, req.key)
		if err != nil {
			return s.errResp(dst, req.id, err)
		}
		return respOKGet(dst, req.id, v, found)
	}
	b := append(respHeader(dst, stOK, req.id, 1+4), 1, 0, 0, 0, 0)
	start := len(b)
	b, found, err := s.app.AppendGet(b, req.table, req.key)
	switch {
	case err != nil:
		return s.errResp(dst, req.id, err)
	case !found:
		return respOKGet(dst, req.id, nil, false)
	}
	binary.LittleEndian.PutUint32(b[start-4:start], uint32(len(b)-start))
	return b
}

func (s *Server) handleWrite(dst []byte, req request, ops []Op) []byte {
	switch req.verb {
	case verbPut:
		ops = append(ops[:0], Op{Key: req.key, Value: req.value})
	case verbDelete:
		ops = append(ops[:0], Op{Key: req.key, Delete: true})
	case verbBatch:
		ops = req.ops
	}
	// The keys and values alias the request message, which the conn reuses
	// or drops: the session's array must not keep them.
	defer clear(ops)
	if req.epoch != s.opts.Epoch {
		s.m.Inc(metrics.ServerFenced, 1)
		return respFenced(dst, req.id, s.opts.Epoch)
	}
	if s.opts.ReadOnly {
		return respMsg(dst, stReadOnly, req.id, ErrReadOnly.Error())
	}
	if wait, ok := s.takeToken(); !ok {
		s.m.Inc(metrics.ServerShed, 1)
		// The rate limiter knows exactly when the next token arrives, so
		// it ships an explicit RetryAfter: the client honors it uncapped
		// instead of clamping it into its backoff schedule and hammering
		// the bucket early.
		return respBusy(dst, req.id, BusyAdvice{
			Backoff:    wait,
			RetryAfter: wait,
			Shard:      -1,
			Watermark:  "server-rate",
		})
	}
	if s.opts.Pressure != nil {
		if avail, _, hard, ok := s.opts.Pressure(); ok && avail < hard {
			// Shed up front: admitting this write would stall it behind
			// an urgent checkpoint; refusing with advice keeps the
			// session (and the group committer) live.
			s.m.Inc(metrics.ServerShed, 1)
			return respBusy(dst, req.id, BusyAdvice{
				Backoff:   db.SuggestedBusyBackoff,
				Shard:     -1,
				Avail:     avail,
				Hard:      hard,
				Watermark: "server-admission",
			})
		}
	}

	ctx := context.Background()
	if req.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.deadline)
		defer cancel()
	}
	seq, err := s.eng.Apply(ctx, req.table, ops)
	if err != nil {
		if req.deadline > 0 &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			// A client-propagated deadline reached the engine and aborted
			// the stall cleanly — the deadline did its job end to end.
			s.m.Inc(metrics.DeadlineAborts, 1)
		}
		return s.errResp(dst, req.id, err)
	}
	return respOKWrite(dst, req.id, seq)
}

// takeToken draws from the write-rate bucket; on refusal it returns
// the virtual time until the next token.
func (s *Server) takeToken() (time.Duration, bool) {
	if s.opts.WriteRate <= 0 || s.opts.Clock == nil {
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock.Now()
	if now > s.lastFill {
		s.tokens += float64(now-s.lastFill) / float64(time.Second) * s.opts.WriteRate
		if max := float64(s.opts.WriteBurst); s.tokens > max {
			s.tokens = max
		}
		s.lastFill = now
	}
	if s.tokens >= 1 {
		s.tokens--
		return 0, true
	}
	wait := time.Duration((1 - s.tokens) / s.opts.WriteRate * float64(time.Second))
	return wait, false
}

// errResp maps engine errors onto wire statuses, appended to dst. Busy
// and ReadOnly mean "definitely not applied"; Indeterminate means "maybe
// applied".
func (s *Server) errResp(dst []byte, id uint64, err error) []byte {
	var be *db.BusyError
	switch {
	case errors.As(err, &be):
		s.m.Inc(metrics.ServerShed, 1)
		return respBusy(dst, id, BusyAdvice{
			Backoff:   be.Backoff,
			Shard:     be.Shard,
			Avail:     be.Avail,
			Hard:      be.Hard,
			Watermark: be.Watermark,
		})
	case errors.Is(err, db.ErrBusy),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		s.m.Inc(metrics.ServerShed, 1)
		return respBusy(dst, id, BusyAdvice{
			Backoff:   db.SuggestedBusyBackoff,
			Shard:     -1,
			Watermark: "engine-busy",
		})
	case errors.Is(err, ErrIndeterminate):
		return respMsg(dst, stIndeterminate, id, err.Error())
	case errors.Is(err, ErrReadOnly), errors.Is(err, db.ErrDegraded):
		return respMsg(dst, stReadOnly, id, err.Error())
	default:
		return respMsg(dst, stErr, id, err.Error())
	}
}
