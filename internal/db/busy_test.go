package db

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestBusyErrorCarriesContext pins the structured shed contract: a
// Begin stalled by the hard watermark past a cancelled context fails
// with a value that still matches the ErrBusy sentinel AND exposes the
// tripped watermark, the space situation and retry advice via
// errors.As — the payload the serving layer's retry-advice wire field
// and operator logs are built from. An open snapshot reader pins the
// log so the stall loop's urgent checkpoints cannot free space and the
// deadline must expire.
func TestBusyErrorCarriesContext(t *testing.T) {
	d, _ := newTinyHeapDB(t, 256, Options{
		Journal: JournalNVWAL,
		NVWAL:   core.VariantUHLSDiff(),
	})
	defer d.Close()
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	// A snapshot reader opened first pins the log: every checkpoint
	// round the stall loop kicks is refused by the reader gate, so the
	// fill below drains free space for good and the Begin stall cannot
	// recover it.
	rd, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	_, _, hard, ok := d.Pressure()
	if !ok {
		t.Fatal("NVWAL database reported no pressure state")
	}
	for i := 0; i < 10000; i++ {
		avail, _, _, _ := d.Pressure()
		if avail < hard {
			break
		}
		tx, err := d.Begin()
		if err != nil {
			t.Fatalf("fill txn %d: %v", i, err)
		}
		if err := tx.Insert("t", []byte(fmt.Sprintf("k%04d", i)), make([]byte, 2048)); err != nil {
			tx.Rollback()
			break
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("fill txn %d: commit: %v", i, err)
		}
	}
	if avail, _, _, _ := d.Pressure(); avail >= hard {
		t.Fatalf("fill never crossed the hard watermark: %d available, hard %d", avail, hard)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = d.BeginCtx(ctx)
	if err == nil {
		t.Fatal("BeginCtx under exhaustion with a cancelled context succeeded")
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("ErrBusy without structured BusyError: %v", err)
	}
	if busy.Watermark != "begin-admission" {
		t.Fatalf("watermark %q, want begin-admission", busy.Watermark)
	}
	if busy.Backoff <= 0 || busy.Hard != hard || busy.Avail >= busy.Hard {
		t.Fatalf("BusyError missing trip context: %+v", busy)
	}
	if busy.Shard != -1 {
		t.Fatalf("unsharded BusyError must carry Shard=-1, got %d", busy.Shard)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BusyError lost its cause: %v", err)
	}

	// WithShard annotates exactly once and copies (the original keeps
	// Shard=-1 for other holders of the error value).
	annotated := WithShard(err, 3)
	var be2 *BusyError
	if !errors.As(annotated, &be2) || be2.Shard != 3 || busy.Shard != -1 {
		t.Fatalf("WithShard: got %+v, original %+v", be2, busy)
	}
}

// TestBeginShedsAtWriterSlot: in Concurrent mode a Begin waiting for the
// writer slot waits only as long as its context — the queue the serving
// layer's writes share — and then fails with a BusyError naming the
// slot, holding nothing: the writer in front commits, and the next Begin
// gets the slot.
func TestBeginShedsAtWriterSlot(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true})
	defer d.Close()
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	front, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	shed := make(chan error, 1)
	go func() {
		tx, err := d.BeginCtx(ctx)
		if err == nil {
			tx.Rollback()
		}
		shed <- err
	}()
	cancel()
	var be *BusyError
	if err := <-shed; !errors.As(err, &be) || !errors.Is(err, ErrBusy) || be.Watermark != "writer-slot" ||
		!errors.Is(err, context.Canceled) {
		t.Fatalf("Begin behind a held slot past its context = %v, want a writer-slot BusyError", err)
	}
	if err := front.Insert("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := front.Commit(); err != nil {
		t.Fatal(err)
	}
	// A context that has ended does not refuse a free slot.
	tx, err := d.BeginCtx(ctx)
	if err != nil {
		t.Fatalf("Begin on a free slot with an ended context = %v", err)
	}
	tx.Rollback()
}
