package blockdev

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func newDev(t testing.TB) (*Device, *simclock.Clock, *metrics.Counters, *trace.Recorder) {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	d := New(Config{Pages: 1024}, clock, m)
	return d, clock, m, d.StartTrace()
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, _, _, _ := newDev(t)
	data := bytes.Repeat([]byte{0xAA}, 100)
	d.WritePage(5, data, "db")
	got := make([]byte, 100)
	d.ReadPage(5, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadPage = %x, want %x", got[:8], data[:8])
	}
}

func TestUnwrittenPageReadsZero(t *testing.T) {
	d, _, _, _ := newDev(t)
	got := bytes.Repeat([]byte{0xFF}, 16)
	d.ReadPage(9, got)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("unwritten page = %x, want zeros", got)
	}
}

func TestUnsyncedWritesLostOnPowerFail(t *testing.T) {
	d, _, _, _ := newDev(t)
	d.WritePage(1, []byte("gone"), "db")
	d.PowerFail()
	got := make([]byte, 4)
	d.ReadPage(1, got)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("unsynced write survived: %q", got)
	}
}

func TestSyncedWritesSurvivePowerFail(t *testing.T) {
	d, _, _, _ := newDev(t)
	d.WritePage(1, []byte("kept"), "db")
	d.Sync()
	d.WritePage(2, []byte("gone"), "db")
	d.PowerFail()
	got := make([]byte, 4)
	d.ReadPage(1, got)
	if !bytes.Equal(got, []byte("kept")) {
		t.Fatalf("synced write lost: %q", got)
	}
	d.ReadPage(2, got)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("unsynced write survived: %q", got)
	}
}

func TestLatencyAccounting(t *testing.T) {
	d, clock, m, _ := newDev(t)
	t0 := clock.Now()
	d.WritePage(0, []byte("x"), "db")
	if clock.Now()-t0 != DefaultProgramLatency {
		t.Fatalf("program charged %v, want %v", clock.Now()-t0, DefaultProgramLatency)
	}
	t0 = clock.Now()
	d.Sync()
	if clock.Now()-t0 != DefaultFlushLatency {
		t.Fatalf("sync charged %v, want %v", clock.Now()-t0, DefaultFlushLatency)
	}
	if m.Count(metrics.BlockWrite) != 1 || m.Count(metrics.Fsync) != 1 {
		t.Fatalf("counters: writes=%d fsyncs=%d", m.Count(metrics.BlockWrite), m.Count(metrics.Fsync))
	}
	if m.Time(metrics.TimeBlockIO) == 0 {
		t.Fatal("no block I/O time attributed")
	}
}

func TestTraceRecordsTaggedWrites(t *testing.T) {
	d, _, _, rec := newDev(t)
	d.WritePage(7, []byte("x"), "db-wal")
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Block != 7 || evs[0].Tag != "db-wal" {
		t.Fatalf("trace = %+v", evs)
	}
	if evs[0].Bytes != DefaultPageSize {
		t.Fatalf("trace bytes = %d, want %d", evs[0].Bytes, DefaultPageSize)
	}
}

// TestNilRecorderOK: a device writes with no recorder attached, and
// one attached later records only the writes that follow.
func TestNilRecorderOK(t *testing.T) {
	d := New(Config{Pages: 16}, simclock.New(), &metrics.Counters{})
	d.WritePage(0, []byte("x"), "db")
	d.Sync()
	rec := d.StartTrace()
	d.WritePage(1, []byte("y"), "db")
	if evs := rec.Events(); len(evs) != 1 || evs[0].Block != 1 {
		t.Fatalf("trace = %+v, want only the write after StartTrace", evs)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d, _, _, _ := newDev(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range page write did not panic")
		}
	}()
	d.WritePage(4096, []byte("x"), "db")
}

func TestOversizeWritePanics(t *testing.T) {
	d, _, _, _ := newDev(t)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize page write did not panic")
		}
	}()
	d.WritePage(0, make([]byte, DefaultPageSize+1), "db")
}

func TestPendingPages(t *testing.T) {
	d, _, _, _ := newDev(t)
	d.WritePage(0, []byte("a"), "db")
	d.WritePage(1, []byte("b"), "db")
	if got := d.PendingPages(); got != 2 {
		t.Fatalf("PendingPages = %d, want 2", got)
	}
	d.Sync()
	if got := d.PendingPages(); got != 0 {
		t.Fatalf("PendingPages after sync = %d, want 0", got)
	}
}

func TestConfigOverrides(t *testing.T) {
	clock := simclock.New()
	d := New(Config{PageSize: 512, Pages: 8, ProgramLatency: time.Millisecond}, clock, &metrics.Counters{})
	if d.PageSize() != 512 || d.Pages() != 8 {
		t.Fatalf("config not applied: %d/%d", d.PageSize(), d.Pages())
	}
	d.WritePage(0, []byte("x"), "db")
	if clock.Now() != time.Millisecond {
		t.Fatalf("custom program latency not charged: %v", clock.Now())
	}
}
