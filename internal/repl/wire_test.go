package repl

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/pager"
)

func sampleFrames() framesMsg {
	return framesMsg{
		incarnation: 7,
		endChain:    0xdeadbeef,
		batch: core.ExportBatch{From: 1000, To: 1003, Backfill: 1000, Frames: []core.ExportFrame{
			{Pgno: 1, Off: 12, Payload: []byte{1, 2, 3, 4}},
			{Pgno: 9, Full: true, Payload: bytes.Repeat([]byte{0xAB}, 100)},
			{Pgno: 9, Off: 4000, Payload: []byte("tail")},
		}},
	}
}

// sameBatch compares batches up to nil-versus-empty frame lists.
func sameBatch(a, b core.ExportBatch) bool {
	if len(a.Frames) == 0 && len(b.Frames) == 0 {
		a.Frames, b.Frames = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// TestFramesWithoutWatermarkDecodeAsNoBoundary: a FRAMES message from a
// sender that predates the watermark field ends after its frames. It
// decodes as "no boundary", so a mixed-version pair falls back to the
// replica's safety net; and a decoder that predates the field reads the
// same frames out of a message that carries it.
func TestFramesWithoutWatermarkDecodeAsNoBoundary(t *testing.T) {
	f := sampleFrames()
	msg := encodeFrames(nil, f.incarnation, f.batch, f.endChain)
	got, err := decodeFrames(msg, nil)
	if err != nil || got.batch.Backfill != 1000 {
		t.Fatalf("decoded watermark %d err %v, want 1000", got.batch.Backfill, err)
	}
	old, err := decodeFrames(msg[:len(msg)-8], nil)
	if err != nil {
		t.Fatal(err)
	}
	if old.batch.Backfill != 0 {
		t.Fatalf("a message without the field decoded with watermark %d", old.batch.Backfill)
	}
	old.batch.Backfill = got.batch.Backfill
	if !sameBatch(old.batch, got.batch) || old.endChain != got.endChain {
		t.Fatal("the watermark field changed what precedes it")
	}
}

func FuzzDecodeFrames(f *testing.F) {
	s := sampleFrames()
	f.Add(encodeFrames(nil, s.incarnation, s.batch, s.endChain))
	f.Add(encodeFrames(nil, 1, core.ExportBatch{From: 5, To: 5}, 0))
	f.Fuzz(func(t *testing.T, msg []byte) {
		got, err := decodeFrames(msg, nil)
		if max := len(msg) / 12; cap(got.batch.Frames) > max {
			t.Fatalf("%d B message sized %d frames", len(msg), cap(got.batch.Frames))
		}
		if err != nil {
			return
		}
		again, err := decodeFrames(encodeFrames(nil, got.incarnation, got.batch, got.endChain), nil)
		if err != nil || again.incarnation != got.incarnation || again.endChain != got.endChain || !sameBatch(again.batch, got.batch) {
			t.Fatalf("decode(encode(x)) = %+v, %v; want %+v", again, err, got)
		}
	})
}

func FuzzDecodeSeed(f *testing.F) {
	f.Add(encodeSeed(3, &db.PageSnapshot{Mark: 42, PageSize: 4096, Pages: []pager.Frame{
		{Pgno: 1, Data: bytes.Repeat([]byte{1}, 64)},
		{Pgno: 2, Data: nil},
	}}))
	f.Fuzz(func(t *testing.T, msg []byte) {
		got, err := decodeSeed(msg)
		if max := len(msg) / 8; cap(got.pages) > max {
			t.Fatalf("%d B message sized %d pages", len(msg), cap(got.pages))
		}
		if err != nil {
			return
		}
		snap := &db.PageSnapshot{Mark: got.mark, PageSize: got.pageSize}
		for _, pg := range got.pages {
			snap.Pages = append(snap.Pages, pager.Frame{Pgno: pg.pgno, Data: pg.data})
		}
		again, err := decodeSeed(encodeSeed(got.incarnation, snap))
		if err != nil || again.incarnation != got.incarnation || again.mark != got.mark ||
			again.pageSize != got.pageSize || len(again.pages) != len(got.pages) {
			t.Fatalf("decode(encode(x)) = %+v, %v; want %+v", again, err, got)
		}
		for i := range got.pages {
			if again.pages[i].pgno != got.pages[i].pgno || !bytes.Equal(again.pages[i].data, got.pages[i].data) {
				t.Fatalf("page %d: decode(encode(x)) = %+v, want %+v", i, again.pages[i], got.pages[i])
			}
		}
	})
}

// FuzzDecodeHelloAck covers the two fixed-size messages: whichever type
// byte the input carries picks the decoder.
func FuzzDecodeHelloAck(f *testing.F) {
	f.Add(encodeHello(hello{incarnation: 2, applied: 77, chain: 0xfeed, needSeed: true}))
	f.Add(encodeAck(nil, ack{incarnation: 2, applied: 78, ok: true}))
	f.Fuzz(func(t *testing.T, msg []byte) {
		if h, err := decodeHello(msg); err == nil {
			if again, err := decodeHello(encodeHello(h)); err != nil || again != h {
				t.Fatalf("decode(encode(x)) = %+v, %v; want %+v", again, err, h)
			}
		}
		if a, err := decodeAck(msg); err == nil {
			if again, err := decodeAck(encodeAck(nil, a)); err != nil || again != a {
				t.Fatalf("decode(encode(x)) = %+v, %v; want %+v", again, err, a)
			}
		}
	})
}
