package server

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleRequests is one request per verb, plus the shapes that change
// the encoding: a delete inside a batch, empty keys and values, no ops.
func sampleRequests() []request {
	return []request{
		{verb: verbGet, id: 1, epoch: 2, table: "kv", key: []byte("alpha")},
		{verb: verbGet, id: 1<<63 + 5, epoch: 1 << 40, deadline: 1500 * time.Millisecond, table: "", key: nil},
		{verb: verbDelete, id: 3, epoch: 2, table: "kv", key: []byte("beta")},
		{verb: verbPut, id: 4, epoch: 2, deadline: 20 * time.Millisecond, table: "kv", key: []byte("gamma"), value: bytes.Repeat([]byte("v"), 300)},
		{verb: verbPut, id: 5, table: "t", key: []byte("k"), value: nil},
		{verb: verbBatch, id: 6, epoch: 9, table: "kv", ops: []Op{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("b"), Delete: true},
			{Key: nil, Value: bytes.Repeat([]byte{0}, 70)},
		}},
		{verb: verbBatch, id: 7, table: "kv"},
		{verb: verbStatus, id: 8, epoch: 3},
	}
}

// sampleResponses is one response per status, and for OK one per verb,
// each with the verb its request carried.
func sampleResponses() []struct {
	verb byte
	resp response
} {
	return []struct {
		verb byte
		resp response
	}{
		{verbGet, response{status: stOK, id: 1, found: true, value: bytes.Repeat([]byte("x"), 1024)}},
		{verbGet, response{status: stOK, id: 2, found: true, value: nil}},
		{verbGet, response{status: stOK, id: 3}},
		{verbPut, response{status: stOK, id: 4, seq: 77}},
		{verbDelete, response{status: stOK, id: 5, seq: 78}},
		{verbBatch, response{status: stOK, id: 6, seq: 1 << 50}},
		{verbStatus, response{status: stOK, id: 7, stat: Status{Role: "primary", Epoch: 4, Mark: 100, Applied: 100}}},
		{verbStatus, response{status: stOK, id: 8, stat: Status{Role: "replica", Epoch: 4, Mark: 100, Applied: 90, Lag: 10, Degraded: true}}},
		{verbPut, response{status: stBusy, id: 9, busy: BusyAdvice{
			Backoff: time.Millisecond, RetryAfter: 3 * time.Second, Shard: -1, Avail: 5, Hard: 8, Watermark: "server-admission"}}},
		{verbBatch, response{status: stBusy, id: 10, busy: BusyAdvice{Shard: 3}}},
		{verbPut, response{status: stFenced, id: 11, epoch: 12}},
		{verbPut, response{status: stReadOnly, id: 12, msg: ErrReadOnly.Error()}},
		{verbDelete, response{status: stIndeterminate, id: 13, msg: "ack wait expired"}},
		{verbGet, response{status: stErr, id: 14, msg: ""}},
	}
}

// encodeResponse is the inverse of decodeResponse, assembled from the
// server's per-status encoders, appending to dst.
func encodeResponse(dst []byte, resp response, verb byte) []byte {
	switch resp.status {
	case stOK:
		switch verb {
		case verbGet:
			return respOKGet(dst, resp.id, resp.value, resp.found)
		case verbPut, verbDelete, verbBatch:
			return respOKWrite(dst, resp.id, resp.seq)
		case verbStatus:
			return respOKStatus(dst, resp.id, resp.stat)
		}
		return respHeader(dst, stOK, resp.id, 0)
	case stBusy:
		return respBusy(dst, resp.id, resp.busy)
	case stFenced:
		return respFenced(dst, resp.id, resp.epoch)
	default:
		return respMsg(dst, resp.status, resp.id, resp.msg)
	}
}

// sameRequest compares two requests, an empty slice equal to a nil one
// (a zero-length field decodes to an empty alias of the message).
func sameRequest(a, b request) bool {
	if a.verb != b.verb || a.id != b.id || a.epoch != b.epoch || a.deadline != b.deadline ||
		a.table != b.table || !bytes.Equal(a.key, b.key) || !bytes.Equal(a.value, b.value) || len(a.ops) != len(b.ops) {
		return false
	}
	for i := range a.ops {
		if a.ops[i].Delete != b.ops[i].Delete || !bytes.Equal(a.ops[i].Key, b.ops[i].Key) || !bytes.Equal(a.ops[i].Value, b.ops[i].Value) {
			return false
		}
	}
	return true
}

func sameResponse(a, b response) bool {
	av, bv := a.value, b.value
	a.value, b.value = nil, nil
	return bytes.Equal(av, bv) && reflect.DeepEqual(a, b)
}

// With a nil dst, every encoder makes one allocation of the message's
// exact size; with a dst, it appends.
func TestProtoRoundTripsEveryVerbAndStatus(t *testing.T) {
	prefix := []byte("prefix")
	for _, req := range sampleRequests() {
		enc := encodeRequest(nil, req)
		if cap(enc) != len(enc) {
			t.Errorf("verb %d: %d B request in a %d B allocation", req.verb, len(enc), cap(enc))
		}
		got, err := decodeRequest(enc, "", nil)
		if err != nil || !sameRequest(got, req) {
			t.Errorf("verb %d: decode(encode(x)) = %+v, %v; want %+v", req.verb, got, err, req)
		}
		if app := encodeRequest(bytes.Clone(prefix), req); !bytes.Equal(app, append(bytes.Clone(prefix), enc...)) {
			t.Errorf("verb %d: encoding after a prefix is not prefix+encoding", req.verb)
		}
	}
	for _, s := range sampleResponses() {
		enc := encodeResponse(nil, s.resp, s.verb)
		if cap(enc) != len(enc) {
			t.Errorf("status %d verb %d: %d B response in a %d B allocation", s.resp.status, s.verb, len(enc), cap(enc))
		}
		got, err := decodeResponse(enc, s.verb)
		if err != nil || !sameResponse(got, s.resp) {
			t.Errorf("status %d verb %d: decode(encode(x)) = %+v, %v; want %+v", s.resp.status, s.verb, got, err, s.resp)
		}
		if app := encodeResponse(bytes.Clone(prefix), s.resp, s.verb); !bytes.Equal(app, append(bytes.Clone(prefix), enc...)) {
			t.Errorf("status %d verb %d: encoding after a prefix is not prefix+encoding", s.resp.status, s.verb)
		}
	}
}

// The serving path's shapes cost nothing once the session's and client's
// buffers are warm: only a table name the session has not seen is
// allocated.
func TestProtoAllocations(t *testing.T) {
	get := request{verb: verbGet, id: 1, epoch: 1, table: "kv", key: []byte("key-000123")}
	value := bytes.Repeat([]byte("v"), 256)
	wire := encodeRequest(nil, get)
	buf, ops := make([]byte, 0, 4<<10), make([]Op, 0, 8)
	for name, tc := range map[string]struct {
		want float64
		fn   func()
	}{
		"encode GET":                  {0, func() { buf = encodeRequest(buf[:0], get) }},
		"decode GET, same table":      {0, func() { _, _ = decodeRequest(wire, "kv", ops) }},
		"decode GET, new table":       {1, func() { _, _ = decodeRequest(wire, "other", ops) }},
		"encode GET response, 256 B":  {0, func() { buf = respOKGet(buf[:0], 1, value, true) }},
		"encode BATCH, 8 ops":         {0, func() { buf = encodeRequest(buf[:0], request{verb: verbBatch, table: "kv", ops: batchOps}) }},
		"decode BATCH, 8 ops":         {0, func() { _, _ = decodeRequest(batchWire, "kv", ops) }},
		"decode GET response, 256 B":  {0, func() { _, _ = decodeResponse(getRespWire, verbGet) }},
		"encode write response":       {0, func() { buf = respOKWrite(buf[:0], 1, 2) }},
		"encode Busy with a 16 B tag": {0, func() { buf = respBusy(buf[:0], 1, BusyAdvice{Watermark: "server-admission"}) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", name, got, tc.want)
		}
	}
}

// The benchmark workload's shapes: a 10-byte key, a 256 B value, and the
// 8-op batch of 256 B values.
var (
	batchOps = func() []Op {
		ops := make([]Op, 8)
		for i := range ops {
			ops[i] = Op{Key: []byte("key-00012" + string(rune('0'+i))), Value: bytes.Repeat([]byte("b"), 256)}
		}
		return ops
	}()
	batchWire   = encodeRequest(nil, request{verb: verbBatch, id: 1, epoch: 1, table: "kv", ops: batchOps})
	getRespWire = respOKGet(nil, 1, bytes.Repeat([]byte("v"), 256), true)
)

// A request decodes only if its last field ends the message: bytes left
// over mean the sender and the decoder disagree about a length.
func TestDecodeRequestRejectsTrailingBytes(t *testing.T) {
	for _, req := range sampleRequests() {
		msg := append(encodeRequest(nil, req), 0)
		if _, err := decodeRequest(msg, "", nil); !errors.Is(err, errTrailing) {
			t.Errorf("verb %d with a byte after its last field: err = %v, want errTrailing", req.verb, err)
		}
	}
}

// A response's u16 strings are cut to what the length can say, not
// wrapped into a length that reads part of the string as the rest.
func TestResponseStringsClampToTheirLength(t *testing.T) {
	long := strings.Repeat("e", math.MaxUint16+9)
	resp, err := decodeResponse(respMsg(nil, stErr, 1, long), verbPut)
	if err != nil || resp.msg != long[:math.MaxUint16] {
		t.Errorf("error message of %d B came back as %d B, %v", len(long), len(resp.msg), err)
	}
	resp, err = decodeResponse(respBusy(nil, 2, BusyAdvice{Watermark: long, Hard: 7}), verbPut)
	if err != nil || resp.busy.Watermark != long[:math.MaxUint16] || resp.busy.Hard != 7 {
		t.Errorf("watermark of %d B came back as %d B (hard %d), %v", len(long), len(resp.busy.Watermark), resp.busy.Hard, err)
	}
}

// A batch's op count is a claim by the peer; decoding must not size
// anything by it before the bytes are there.
func TestDecodeRequestRejectsHostileBatchCount(t *testing.T) {
	msg := encodeRequest(nil, request{verb: verbBatch, id: 1, table: "kv"})
	msg[len(msg)-2], msg[len(msg)-1] = 0xff, 0xff // 65 535 ops, none present
	req, err := decodeRequest(msg, "", nil)
	if err == nil || cap(req.ops) != 0 {
		t.Fatalf("decode = %d ops (cap %d), %v; want an error before any allocation", len(req.ops), cap(req.ops), err)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(encodeRequest(nil, req))
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		req, err := decodeRequest(msg, "kv", nil)
		if max := len(msg) / 3; cap(req.ops) > max {
			t.Fatalf("%d B message sized %d ops", len(msg), cap(req.ops))
		}
		if err != nil {
			return
		}
		again, err := decodeRequest(encodeRequest(nil, req), "", nil)
		if err != nil || !sameRequest(again, req) {
			t.Fatalf("decode(encode(x)) = %+v, %v; want %+v", again, err, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, s := range sampleResponses() {
		f.Add(encodeResponse(nil, s.resp, s.verb), s.verb)
	}
	f.Fuzz(func(t *testing.T, msg []byte, verb byte) {
		resp, err := decodeResponse(msg, verb)
		if err != nil {
			return
		}
		again, err := decodeResponse(encodeResponse(nil, resp, verb), verb)
		if err != nil || !sameResponse(again, resp) {
			t.Fatalf("decode(encode(x)) = %+v, %v; want %+v", again, err, resp)
		}
	})
}

var protoSink int

// BenchmarkProtoGet is the wire work of one GET: the client encodes the
// request, the session decodes it, the server encodes a 256 B value, the
// client decodes it. Client and session encode into buffers they reuse.
func BenchmarkProtoGet(b *testing.B) {
	req := request{verb: verbGet, id: 1, epoch: 1, table: "kv", key: []byte("key-000123")}
	value := bytes.Repeat([]byte("v"), 256)
	var reqWire, respWire []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reqWire = encodeRequest(reqWire[:0], req)
		got, err := decodeRequest(reqWire, "kv", nil)
		if err != nil {
			b.Fatal(err)
		}
		respWire = respOKGet(respWire[:0], got.id, value, true)
		resp, err := decodeResponse(respWire, verbGet)
		if err != nil {
			b.Fatal(err)
		}
		protoSink += len(resp.value)
	}
}

// BenchmarkProtoBatch is the wire work of one 8-op BATCH of 256 B values.
func BenchmarkProtoBatch(b *testing.B) {
	req := request{verb: verbBatch, id: 1, epoch: 1, table: "kv", ops: batchOps}
	var reqWire, respWire []byte
	var ops []Op
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reqWire = encodeRequest(reqWire[:0], req)
		got, err := decodeRequest(reqWire, "kv", ops)
		if err != nil {
			b.Fatal(err)
		}
		ops = got.ops
		respWire = respOKWrite(respWire[:0], got.id, 9)
		resp, err := decodeResponse(respWire, verbBatch)
		if err != nil {
			b.Fatal(err)
		}
		protoSink += len(got.ops) + int(resp.seq)
	}
}
