package db

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
)

// DB.AppendGet and ReadTx.AppendGet take Get's path — the writer slot,
// the snapshot, the tree — and append what Get would copy: behind the
// bytes dst holds, for values in the leaf, of 0 bytes and on an overflow
// chain. A missing key, a missing table and a refused slot hand dst back
// as passed; a snapshot's AppendGet sees the snapshot, not a later commit;
// and into a dst with room neither allocates.
func TestAppendGetReadsWhatGetReads(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	defer d.Close()
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{
		"leaf":     "a value in the leaf",
		"empty":    "",
		"overflow": string(bytes.Repeat([]byte("0123456789abcdef"), 256)),
	}
	mustCommitKV(t, d, "t", vals)
	rt, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	mustCommitKV(t, d, "t", map[string]string{"leaf": "written after the snapshot"})

	prefix := []byte("hdr:")
	roomy := append(make([]byte, 0, 8<<10), prefix...)
	readers := []struct {
		name      string
		get       func(table string, key []byte) ([]byte, bool, error)
		appendGet func(dst []byte, table string, key []byte) ([]byte, bool, error)
		leaf      string
	}{
		{"DB", d.Get, d.AppendGet, "written after the snapshot"},
		{"ReadTx", rt.Get, rt.AppendGet, vals["leaf"]},
	}
	for _, r := range readers {
		for _, key := range []string{"leaf", "empty", "overflow", "missing"} {
			want, ok := vals[key]
			if key == "leaf" {
				want = r.leaf
			}
			copied, found, err := r.get("t", []byte(key))
			if err != nil || found != ok || string(copied) != want {
				t.Fatalf("%s.Get %s = %q found=%v err=%v", r.name, key, copied, found, err)
			}
			got, found, err := r.appendGet(roomy, "t", []byte(key))
			if err != nil || found != ok || string(got) != string(prefix)+want || &got[0] != &roomy[0] {
				t.Fatalf("%s.AppendGet %s = %q found=%v err=%v, want %q in dst", r.name, key, got, found, err, string(prefix)+want)
			}
		}
		got, found, err := r.appendGet(roomy, "nosuch", []byte("leaf"))
		if !errors.Is(err, ErrNoTable) || found || len(got) != len(prefix) {
			t.Fatalf("%s.AppendGet of a missing table = %q found=%v err=%v, want dst as passed and ErrNoTable", r.name, got, found, err)
		}
		key := []byte("overflow")
		if n := testing.AllocsPerRun(50, func() { _, _, _ = r.appendGet(roomy, "t", key) }); n != 0 {
			t.Fatalf("%s.AppendGet into a dst with room allocates %v times, want 0", r.name, n)
		}
	}

	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if got, _, err := d.AppendGet(roomy, "t", []byte("leaf")); !errors.Is(err, ErrTxnOpen) || len(got) != len(prefix) {
		t.Fatalf("AppendGet beside an open transaction = %q, %v; want dst as passed and ErrTxnOpen", got, err)
	}
}
