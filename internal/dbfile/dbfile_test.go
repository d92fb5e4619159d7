package dbfile

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/ext4"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func newFile(t testing.TB) *File {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Pages: 1 << 14}, simclock.New(), &metrics.Counters{})
	fs := ext4.New(dev)
	f, err := fs.Create("x.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	return New(f, 4096)
}

func TestWriteReadPage(t *testing.T) {
	d := newFile(t)
	img := bytes.Repeat([]byte{0x5C}, 4096)
	if err := d.WritePage(3, img); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := d.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("round trip mismatch")
	}
	if d.PageSize() != 4096 {
		t.Fatalf("PageSize = %d", d.PageSize())
	}
}

func TestReadBeyondEOFZeroFills(t *testing.T) {
	d := newFile(t)
	got := bytes.Repeat([]byte{0xFF}, 4096)
	if err := d.ReadPage(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("beyond-EOF read not zero-filled")
	}
}

func TestReadPartialPageAtEOF(t *testing.T) {
	d := newFile(t)
	// Write page 1 only partially via the underlying file: page 2 read
	// must zero-fill its tail.
	if err := d.WritePage(1, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xEE}, 4096)
	if err := d.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("partial EOF read not zero-filled")
	}
}

func TestSyncAndSize(t *testing.T) {
	d := newFile(t)
	d.WritePage(1, make([]byte, 4096))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4096 {
		t.Fatalf("Size = %d", d.Size())
	}
}
