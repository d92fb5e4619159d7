package server

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/btree"
	"repro/internal/netsim"
)

// rawGet sends one GET with the given id on conn and returns the
// response frame, which is valid until conn's next Recv.
func rawGet(t testing.TB, conn netsim.Conn, buf []byte, id uint64, key string) []byte {
	t.Helper()
	if err := conn.Send(encodeRequest(buf[:0], request{verb: verbGet, id: id, table: "kv", key: []byte(key)})); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// putAll writes vals into the kv table through eng, one transaction.
func putAll(t testing.TB, eng *DBEngine, vals map[string][]byte) {
	t.Helper()
	ops := make([]Op, 0, len(vals))
	for k, v := range vals {
		ops = append(ops, Op{Key: []byte(k), Value: v})
	}
	if _, err := eng.Apply(context.Background(), "kv", ops); err != nil {
		t.Fatal(err)
	}
}

// A served GET copies its value once, from the page image into the
// response frame the session reuses: with the request encoded into a
// reused buffer and the simulated conn delivering into buffers it owns,
// the whole round trip — the server's session and engine included —
// allocates nothing, for values in the leaf and on an overflow chain.
func TestServedGetAllocatesNothing(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	keys := []string{"small", "medium", "overflow"}
	putAll(t, eng, map[string][]byte{
		"small":    bytes.Repeat([]byte{'s'}, 64),
		"medium":   bytes.Repeat([]byte{'m'}, 256),
		"overflow": bytes.Repeat([]byte{'o'}, 4<<10),
	})
	_, dial := startSim(t, eng, Options{})
	conn, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 0, 64)
	id := uint64(0)
	get := func() {
		id++
		msg := rawGet(t, conn, buf, id, keys[id%uint64(len(keys))])
		resp, err := decodeResponse(msg, verbGet)
		if err != nil || resp.status != stOK || !resp.found || resp.id != id {
			t.Fatalf("GET %d: status %d found %v id %d err %v", id, resp.status, resp.found, resp.id, err)
		}
	}
	for range 2 * len(keys) { // the session's buffer grows to the largest frame
		get()
	}
	if n, b := alloctest.PerRun(300, get); n > 0.05 || b >= 2048 {
		t.Fatalf("a served GET allocates %.2f times and %.0f bytes, want 0", n, b)
	}
}

// getOnly hides its engine's AppendGet, as a decorator that embeds
// Engine does: the server serves its GETs through Engine.Get.
type getOnly struct{ Engine }

// The frame a GET is answered with is byte for byte what encoding the
// value would give: for a missing key (no length, no value), a 0-byte
// value and a value on an overflow chain, whether the engine appends the
// value or returns a copy of it.
func TestServedGetFrames(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	vals := map[string][]byte{
		"empty":    {},
		"overflow": bytes.Repeat([]byte("0123456789abcdef"), 256),
	}
	putAll(t, eng, vals)
	for _, served := range []Engine{eng, getOnly{eng}} {
		_, dial := startSim(t, served, Options{})
		conn, err := dial("srv")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The overflow value first, so the missing key's frame is built in
		// a buffer that still holds its bytes.
		for i, key := range []string{"overflow", "missing", "empty", "overflow"} {
			id := uint64(100 + i)
			v, found := vals[key]
			got := rawGet(t, conn, nil, id, key)
			if want := respOKGet(nil, id, v, found); !bytes.Equal(got, want) {
				t.Fatalf("%T: GET %s: frame of %d B differs from the encoded response of %d B", served, key, len(got), len(want))
			}
		}
	}
}

// The largest value a record holds, over a real socket: its frame is
// larger than the conn's read buffer, so it arrives through the
// receiver's large-frame path, and larger than keptBuf, so the session
// drops the buffer it grew for it. Reads after it, small and large, must
// still carry their own values whole.
func TestServedGetLargestValueOverTCP(t *testing.T) {
	if respHeaderLen+1+4+btree.MaxValueSize <= keptBuf {
		t.Fatalf("a %d B value's frame fits in keptBuf: the test no longer covers the drop", btree.MaxValueSize)
	}
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	big := make([]byte, btree.MaxValueSize)
	for i := range big {
		big[i] = byte(i * 7)
	}
	putAll(t, eng, map[string][]byte{"big": big, "small": []byte("tiny")})
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind loopback: %v", err)
	}
	s := New(eng, Options{})
	go s.Serve(l)
	defer s.Close()
	cli := NewClient(netsim.DialTCP, []string{l.Addr()}, ClientOptions{RecvTimeout: 5 * time.Second})
	defer cli.Close()
	for i, key := range []string{"big", "small", "big", "big", "small"} {
		want := big
		if key == "small" {
			want = []byte("tiny")
		}
		v, found, err := cli.Get("kv", []byte(key))
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("read %d of %s: %d B found=%v err=%v, want %d B", i, key, len(v), found, err, len(want))
		}
	}
}

// partialEngine appends the value of key "broken" halfway and then
// fails, as a read whose overflow chain breaks mid-value would — and hands
// back what it appended, which the server must not send — and any other
// key's value whole.
type partialEngine struct{ stubEngine }

var errChainBroken = errors.New("btree: truncated overflow chain")

func (e *partialEngine) AppendGet(dst []byte, _ string, key []byte) ([]byte, bool, error) {
	if string(key) == "broken" {
		return append(dst, "half of a value"...), false, errChainBroken
	}
	return append(dst, "whole"...), true, nil
}

func (e *partialEngine) Get(table string, key []byte) ([]byte, bool, error) {
	return e.AppendGet(nil, table, key)
}

// A read that fails after part of its value was appended answers with the
// error alone: the frame is rewound to where the response began. Served
// through Get, the failed read's frame is the same.
func TestServedGetErrorRewindsPartialValue(t *testing.T) {
	for _, eng := range []Engine{&partialEngine{}, getOnly{&partialEngine{}}} {
		_, dial := startSim(t, eng, Options{})
		conn, err := dial("srv")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i, key := range []string{"ok", "broken", "ok", "broken"} {
			id := uint64(i + 1)
			got := rawGet(t, conn, nil, id, key)
			want := respOKGet(nil, id, []byte("whole"), true)
			if key == "broken" {
				want = respMsg(nil, stErr, id, errChainBroken.Error())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%T: GET %s: frame %q, want %q", eng, key, got, want)
			}
		}
	}
}

// A GET resent under the same id gets the cached frame back, the same
// bytes, even when the value changed in between; a new id reads again.
func TestServedGetDuplicateResendsIdenticalBytes(t *testing.T) {
	d := openDB(t)
	eng := NewDBEngine(d, 0)
	putAll(t, eng, map[string][]byte{"k": bytes.Repeat([]byte{'1'}, 300)})
	_, dial := startSim(t, eng, Options{})
	conn, err := dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := bytes.Clone(rawGet(t, conn, nil, 9, "k"))
	putAll(t, eng, map[string][]byte{"k": bytes.Repeat([]byte{'2'}, 300)})
	if again := rawGet(t, conn, nil, 9, "k"); !bytes.Equal(again, first) {
		t.Fatal("the resent response differs from the first")
	}
	resp, err := decodeResponse(rawGet(t, conn, nil, 10, "k"), verbGet)
	if err != nil || !bytes.Equal(resp.value, bytes.Repeat([]byte{'2'}, 300)) {
		t.Fatalf("a new id read %q, err %v", resp.value, err)
	}
}
