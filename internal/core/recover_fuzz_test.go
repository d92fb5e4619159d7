package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dbfile"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/pager"
)

// recoverFuzzPages are the pages FuzzRecoverLog's transactions write.
var recoverFuzzPages = []uint32{2, 3, 4, 5}

// recoverFuzzHistory commits the fuzz target's transactions and returns
// every page's image after each prefix of them: states[k][i] is page
// recoverFuzzPages[i] after the first k transactions (states[0] is the
// empty database file). A checkpoint after the second transaction puts
// the first two in the database file, so later differential frames
// replay over a file base; the third and the last transaction each
// rewrite one page whole, so the live chain spans two blocks.
func recoverFuzzHistory(t *testing.T, w *NVWAL) [][][]byte {
	cur := make([][]byte, len(recoverFuzzPages))
	for i := range cur {
		cur[i] = make([]byte, 4096)
	}
	states := [][][]byte{append([][]byte(nil), cur...)}
	txns := [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2}, {0, 1, 2}}
	for n, pages := range txns {
		var frames []pager.Frame
		for j, i := range pages {
			img := patchedPage(cur[i], (n*700+j*300)%4000, 24+8*n, byte(0x10*n+j+1))
			if j == 0 && (n == 2 || n == len(txns)-1) {
				img = fullPage(byte(0x80 + n))
			}
			frames = append(frames, pager.Frame{Pgno: recoverFuzzPages[i], Data: img})
			cur[i] = img
		}
		if err := w.CommitTransaction(frames); err != nil {
			t.Fatal(err)
		}
		states = append(states, append([][]byte(nil), cur...))
		if n == 1 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return states
}

// FuzzRecoverLog damages a committed log and recovers it: commit a few
// transactions, overwrite a fuzz-chosen span of one log block (or of the
// header block) with fuzz bytes, cut power, and reopen. Open must never
// panic or hang. When it returns a handle, every page must equal its
// image after one common committed prefix of the transactions — the
// salvage contract in the header-layout comment: damage may cost a
// suffix of the committed order, never a transaction from its middle —
// and a commit on top of the salvaged log survives the next power cut.
//
// The seed corpus (testdata/fuzz/FuzzRecoverLog) names the damage each
// seed does to the log this history leaves: two blocks, then the header.
func FuzzRecoverLog(f *testing.F) {
	f.Fuzz(recoverDamagedLog)
}

// recoverDamagedLog is FuzzRecoverLog's body for one input.
func recoverDamagedLog(t *testing.T, block uint8, off uint16, data []byte) {
	e := newTinyEnv(t, 32)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)
	states := recoverFuzzHistory(t, w)

	// One of the live generation's blocks, or the header block.
	targets := append(w.blocks[:len(w.blocks):len(w.blocks)], heapo.Block{Addr: w.headerAddr, Pages: headerBlockSize / heapo.PageSize})
	tgt := targets[int(block)%len(targets)]
	at := int(off) % tgt.Size()
	if n := min(len(data), tgt.Size()-at); n > 0 {
		e.dev.Write(tgt.Addr+uint64(at), data[:n])
		w.persistRange(tgt.Addr+uint64(at), n)
	}

	// A hang anywhere below fails the input with every goroutine's
	// stack.
	watchdog := time.AfterFunc(10*time.Second, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("recovery hung on the damaged log:\n%s", buf[:runtime.Stack(buf, true)]))
	})
	defer watchdog.Stop()
	w2, err := powerCycle(t, e, cfg)
	if err != nil {
		return
	}
	got := recoveredPages(t, e, w2)
	k := slices.IndexFunc(states, func(st [][]byte) bool { return slices.EqualFunc(got, st, bytes.Equal) })
	if k < 0 {
		t.Fatalf("recovered pages match no committed prefix: %s\n%s", w2.Salvage(), describePrefixes(got, states))
	}

	// The salvaged log keeps working: a commit on top of it survives a
	// clean power cut, beside the prefix recovery kept. A report of
	// database-file damage opens the database read-only instead.
	if w2.Salvage().DBFileDamaged {
		return
	}
	want := append([][]byte(nil), states[k]...)
	want[0] = fullPage(0xEE)
	if err := w2.CommitTransaction([]pager.Frame{{Pgno: recoverFuzzPages[0], Data: want[0]}}); err != nil {
		t.Fatalf("commit after salvage: %v (%s)", err, w2.Salvage())
	}
	w3, err := powerCycle(t, e, cfg)
	if err != nil {
		t.Fatalf("reopen after a clean power cut: %v", err)
	}
	if got := recoveredPages(t, e, w3); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("the commit after salvage, or the prefix below it, did not survive the next power cut (prefix %d; %s)", k, w2.Salvage())
	}
}

// powerCycle cuts power to the NVRAM and the file system, then reopens
// the log.
func powerCycle(t *testing.T, e *testEnv, cfg Config) (*NVWAL, error) {
	e.dev.PowerFail(memsim.FailDropAll, 1)
	e.dev.Recover()
	e.fs.PowerFail()
	file, err := e.fs.OpenOrCreate("test.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	e.db = dbfile.New(file, 4096)
	h, err := heapo.Attach(e.dev)
	if err != nil {
		t.Fatal(err)
	}
	h.ReclaimPending()
	e.heap = h
	return Open(h, e.db, cfg, e.m)
}

// recoveredPages reads every page of recoverFuzzPages through w: its log
// version, else its database-file image.
func recoveredPages(t *testing.T, e *testEnv, w *NVWAL) [][]byte {
	got := make([][]byte, len(recoverFuzzPages))
	for i, pgno := range recoverFuzzPages {
		img, ok := w.PageVersion(pgno)
		if ok && img == nil {
			t.Fatalf("page %d: the log holds it but cannot build it (%s)", pgno, w.Salvage())
		}
		if !ok {
			img = make([]byte, 4096)
			if err := e.db.ReadPage(pgno, img); err != nil {
				t.Fatalf("page %d: %v", pgno, err)
			}
		}
		got[i] = img
	}
	return got
}

// describePrefixes lists, per page, the prefixes its recovered image
// matches.
func describePrefixes(got [][]byte, states [][][]byte) string {
	var b bytes.Buffer
	for i, pgno := range recoverFuzzPages {
		var ks []int
		for k, st := range states {
			if bytes.Equal(got[i], st[i]) {
				ks = append(ks, k)
			}
		}
		fmt.Fprintf(&b, "\tpage %d matches prefixes %v\n", pgno, ks)
	}
	return b.String()
}
