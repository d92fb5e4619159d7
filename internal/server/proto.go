// Wire protocol: length-prefixed KV verbs over a netsim message
// stream (the length prefix itself is the transport framing; one
// message = one request or response). Every request carries a client
// request id (at-most-once dedup per connection), the client's fencing
// epoch, and an optional execution deadline. Responses lead with a
// status byte; the Busy status carries machine-readable retry advice
// lifted straight from the engine's structured BusyError.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Verbs.
const (
	verbGet byte = iota + 1
	verbPut
	verbDelete
	verbBatch
	verbStatus
)

// Response statuses.
const (
	stOK byte = iota + 1
	// stBusy: the write was shed or timed out BEFORE anything reached
	// the journal — definitely not applied, safe to retry after the
	// advised backoff.
	stBusy
	// stFenced: the request's epoch does not match the server's; the
	// payload carries the server's epoch.
	stFenced
	// stReadOnly: the endpoint cannot execute writes (replica, or a
	// degraded primary).
	stReadOnly
	// stIndeterminate: the commit may or may not be durable/replicated
	// (e.g. a replica-ack wait expired after the local commit). A
	// retry is idempotent at the KV level but the caller must treat
	// the op as possibly applied.
	stIndeterminate
	stErr
)

// Op is one mutation in a batch.
type Op struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Status is the STATUS verb's payload, also used for primary
// discovery and replication-lag reporting.
type Status struct {
	Role     string // "primary" or "replica"
	Epoch    uint64
	Mark     int // end of the committed log (primary) / shipped mark known (replica)
	Applied  int // mark applied and readable (primary: == Mark)
	Lag      int // Mark - Applied, as last known
	Degraded bool
}

// request is one decoded client request.
type request struct {
	verb     byte
	id       uint64
	epoch    uint64
	deadline time.Duration // 0 = none
	table    string
	key      []byte
	value    []byte
	ops      []Op
}

// errShort rejects truncated messages, errTrailing ones with bytes left
// over after their last field.
var (
	errShort    = errors.New("server: truncated message")
	errTrailing = errors.New("server: bytes after the last field")
)

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.err = errShort
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errShort
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// reqHeaderLen is what every request leads with: verb, id, epoch and
// the deadline in milliseconds.
const reqHeaderLen = 1 + 8 + 8 + 4

// opLen is one batch op on the wire.
func opLen(op Op) int {
	if op.Delete {
		return 1 + 2 + len(op.Key)
	}
	return 1 + 2 + len(op.Key) + 4 + len(op.Value)
}

// keptBuf bounds the buffer a session or client encodes into from one
// message to the next: one that a large message grew is dropped, not
// pinned for the life of the connection.
const keptBuf = 64 << 10

// reuse empties b for the next message, or drops it when a large message
// grew it past keptBuf.
func reuse(b []byte) []byte {
	if cap(b) > keptBuf {
		return nil
	}
	return b[:0]
}

// grow returns dst with room for n more bytes. A dst without that room is
// replaced by one allocation of exactly len(dst)+n, so a nil dst costs
// one allocation of the message's size.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	b := make([]byte, len(dst), len(dst)+n)
	copy(b, dst)
	return b
}

// checkRequest refuses a request a field of which is longer than its
// wire length can say: encoded, the length would wrap and the server
// would read a different request. (A value's u32 length cannot wrap: no
// transport sends a message that large.)
func checkRequest(req request) error {
	if len(req.table) > math.MaxUint8 {
		return fmt.Errorf("server: table name of %d B exceeds %d B", len(req.table), math.MaxUint8)
	}
	if len(req.key) > math.MaxUint16 {
		return fmt.Errorf("server: key of %d B exceeds %d B", len(req.key), math.MaxUint16)
	}
	if len(req.ops) > math.MaxUint16 {
		return fmt.Errorf("server: batch of %d ops exceeds %d", len(req.ops), math.MaxUint16)
	}
	for i, op := range req.ops {
		if len(op.Key) > math.MaxUint16 {
			return fmt.Errorf("server: batch op %d: key of %d B exceeds %d B", i, len(op.Key), math.MaxUint16)
		}
	}
	return nil
}

// encodeRequest appends one request to dst; a nil dst yields one
// allocation of the request's exact size. The request must pass
// checkRequest.
func encodeRequest(dst []byte, req request) []byte {
	size := reqHeaderLen
	if req.verb != verbStatus {
		size += 1 + len(req.table)
	}
	switch req.verb {
	case verbGet, verbDelete:
		size += 2 + len(req.key)
	case verbPut:
		size += 2 + len(req.key) + 4 + len(req.value)
	case verbBatch:
		size += 2
		for _, op := range req.ops {
			size += opLen(op)
		}
	}
	b := grow(dst, size)
	b = append(b, req.verb)
	b = appendU64(b, req.id)
	b = appendU64(b, req.epoch)
	b = appendU32(b, uint32(req.deadline/time.Millisecond))
	if req.verb == verbStatus {
		return b
	}
	b = append(b, byte(len(req.table)))
	b = append(b, req.table...)
	switch req.verb {
	case verbGet, verbDelete:
		b = appendU16(b, uint16(len(req.key)))
		b = append(b, req.key...)
	case verbPut:
		b = appendU16(b, uint16(len(req.key)))
		b = append(b, req.key...)
		b = appendU32(b, uint32(len(req.value)))
		b = append(b, req.value...)
	case verbBatch:
		b = appendU16(b, uint16(len(req.ops)))
		for _, op := range req.ops {
			kind := byte(0)
			if op.Delete {
				kind = 1
			}
			b = append(b, kind)
			b = appendU16(b, uint16(len(op.Key)))
			b = append(b, op.Key...)
			if !op.Delete {
				b = appendU32(b, uint32(len(op.Value)))
				b = append(b, op.Value...)
			}
		}
	}
	return b
}

// tableName reads a table name. Sessions name the same table request
// after request, so a name equal to prev (the previous request's) is
// returned as prev instead of being allocated again.
func (r *reader) tableName(prev string) string {
	name := r.bytes(int(r.u8()))
	if string(name) == prev {
		return prev
	}
	return string(name)
}

// decodeRequest parses one request message. key, value and the ops' keys
// and values alias msg. prevTable is the table name of the connection's
// previous request ("" if none); a BATCH's ops are appended to ops[:0],
// which a caller may pass to reuse its array.
func decodeRequest(msg []byte, prevTable string, ops []Op) (request, error) {
	r := &reader{b: msg}
	req := request{
		verb:     r.u8(),
		id:       r.u64(),
		epoch:    r.u64(),
		deadline: time.Duration(r.u32()) * time.Millisecond,
	}
	switch req.verb {
	case verbGet, verbDelete:
		req.table = r.tableName(prevTable)
		req.key = r.bytes(int(r.u16()))
	case verbPut:
		req.table = r.tableName(prevTable)
		req.key = r.bytes(int(r.u16()))
		req.value = r.bytes(int(r.u32()))
	case verbBatch:
		req.table = r.tableName(prevTable)
		n := int(r.u16())
		// The count is a claim: size ops by it only once the bytes that
		// are left could hold that many (the shortest op is a delete of an
		// empty key).
		if n > len(r.b)/3 {
			return req, errShort
		}
		if n > 0 {
			req.ops = slices.Grow(ops[:0], n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var op Op
			op.Delete = r.u8() == 1
			op.Key = r.bytes(int(r.u16()))
			if !op.Delete {
				op.Value = r.bytes(int(r.u32()))
			}
			req.ops = append(req.ops, op)
		}
	case verbStatus:
	default:
		return req, fmt.Errorf("server: unknown verb %d", req.verb)
	}
	if r.err == nil && len(r.b) > 0 {
		return req, errTrailing
	}
	return req, r.err
}

// respHeaderLen is what every response leads with: [status u8][id u64].
const respHeaderLen = 1 + 8

// respHeader starts a response, appended to dst, that will carry body
// more bytes. Every encoder below passes its exact body size, so with a
// nil dst a response is one allocation, and with a dst that has the room
// none.
func respHeader(dst []byte, st byte, id uint64, body int) []byte {
	b := grow(dst, respHeaderLen+body)
	b = append(b, st)
	return appendU64(b, id)
}

func respOKGet(dst []byte, id uint64, value []byte, found bool) []byte {
	if !found {
		return append(respHeader(dst, stOK, id, 1), 0)
	}
	b := respHeader(dst, stOK, id, 1+4+len(value))
	b = append(b, 1)
	b = appendU32(b, uint32(len(value)))
	return append(b, value...)
}

func respOKWrite(dst []byte, id, seq uint64) []byte {
	return appendU64(respHeader(dst, stOK, id, 8), seq)
}

func respOKStatus(dst []byte, id uint64, s Status) []byte {
	b := respHeader(dst, stOK, id, 1+4*8+1)
	role := byte(0)
	if s.Role == "primary" {
		role = 1
	}
	b = append(b, role)
	b = appendU64(b, s.Epoch)
	b = appendU64(b, uint64(s.Mark))
	b = appendU64(b, uint64(s.Applied))
	b = appendU64(b, uint64(s.Lag))
	if s.Degraded {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

// BusyAdvice is the decoded retry advice of a Busy response.
type BusyAdvice struct {
	Backoff time.Duration
	// RetryAfter, when non-zero, is an explicit server promise: retrying
	// before this much time has passed is pointless (the rate limiter's
	// next token, a checkpoint round in flight). Unlike Backoff — a
	// suggestion the client folds into its capped exponential schedule —
	// RetryAfter is honored uncapped.
	RetryAfter time.Duration
	Shard      int
	Avail      int
	Hard       int
	Watermark  string
}

// clampU16 cuts s to what a u16 length can say.
func clampU16(s string) string { return s[:min(len(s), math.MaxUint16)] }

func respBusy(dst []byte, id uint64, adv BusyAdvice) []byte {
	adv.Watermark = clampU16(adv.Watermark)
	b := respHeader(dst, stBusy, id, 2*8+3*4+2+len(adv.Watermark))
	b = appendU64(b, uint64(adv.Backoff))
	b = appendU64(b, uint64(adv.RetryAfter))
	b = appendU32(b, uint32(int32(adv.Shard)))
	b = appendU32(b, uint32(adv.Avail))
	b = appendU32(b, uint32(adv.Hard))
	b = appendU16(b, uint16(len(adv.Watermark)))
	return append(b, adv.Watermark...)
}

func respFenced(dst []byte, id, epoch uint64) []byte {
	return appendU64(respHeader(dst, stFenced, id, 8), epoch)
}

func respMsg(dst []byte, st byte, id uint64, msg string) []byte {
	msg = clampU16(msg)
	b := respHeader(dst, st, id, 2+len(msg))
	b = appendU16(b, uint16(len(msg)))
	return append(b, msg...)
}

// response is one decoded server response.
type response struct {
	status byte
	id     uint64

	found bool
	value []byte
	seq   uint64
	stat  Status
	busy  BusyAdvice
	epoch uint64
	msg   string
}

// decodeResponse parses a response for the verb the request carried.
func decodeResponse(msg []byte, verb byte) (response, error) {
	r := &reader{b: msg}
	resp := response{status: r.u8(), id: r.u64()}
	switch resp.status {
	case stOK:
		switch verb {
		case verbGet:
			resp.found = r.u8() == 1
			if resp.found {
				resp.value = r.bytes(int(r.u32()))
			}
		case verbPut, verbDelete, verbBatch:
			resp.seq = r.u64()
		case verbStatus:
			if r.u8() == 1 {
				resp.stat.Role = "primary"
			} else {
				resp.stat.Role = "replica"
			}
			resp.stat.Epoch = r.u64()
			resp.stat.Mark = int(r.u64())
			resp.stat.Applied = int(r.u64())
			resp.stat.Lag = int(r.u64())
			resp.stat.Degraded = r.u8() == 1
		}
	case stBusy:
		resp.busy.Backoff = time.Duration(r.u64())
		resp.busy.RetryAfter = time.Duration(r.u64())
		resp.busy.Shard = int(int32(r.u32()))
		resp.busy.Avail = int(r.u32())
		resp.busy.Hard = int(r.u32())
		resp.busy.Watermark = string(r.bytes(int(r.u16())))
	case stFenced:
		resp.epoch = r.u64()
	case stReadOnly, stIndeterminate, stErr:
		resp.msg = string(r.bytes(int(r.u16())))
	default:
		return resp, fmt.Errorf("server: unknown response status %d", resp.status)
	}
	return resp, r.err
}
