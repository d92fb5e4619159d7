// Replica reads pin the journal's mark: they see whole batches while
// batches apply, rounds run and seeds land, a round a pinned read refuses
// waits for the next batch, and a read racing Promote finishes before it.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
)

// pinRig is a replica driven by hand from a primary database on its own
// machine: seeds from ExportPages, batches from ExportSince. Every primary
// transaction rewrites all pinRows rows of table "t" to one version.
type pinRig struct {
	t        *testing.T
	p        *db.DB
	r        *Replica
	m        *metrics.Counters // the replica's machine
	from     int               // the primary mark applied
	backfill int               // the watermark every later batch carries
	version  int
}

const (
	pinRows    = 300 // several leaves: a scan that strays off its mark mixes versions
	pinReaders = 3
)

func newPinRig(t *testing.T) *pinRig {
	t.Helper()
	c := newTestCluster(t, "n0", "n1")
	opts := DefaultDBOptions()
	opts.CheckpointLimit = -1 // the rig announces the boundaries
	p, err := db.Open(c.Node("n0").Plat, "p.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(c.Node("n1").Plat, "n1.db", ReplicaOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := &pinRig{t: t, p: p, r: r, m: c.Node("n1").Plat.Metrics}
	g.write()
	g.seed()
	return g
}

func pinKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

// write commits the next version of every row on the primary.
func (g *pinRig) write() {
	g.t.Helper()
	g.version++
	tx, err := g.p.Begin()
	if err != nil {
		g.t.Fatal(err)
	}
	for i := 0; i < pinRows; i++ {
		if err := tx.Insert("t", pinKey(i), []byte(fmt.Sprintf("v%06d", g.version))); err != nil {
			g.t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		g.t.Fatal(err)
	}
}

// seed installs the primary's state at its current mark on the replica.
func (g *pinRig) seed() {
	g.t.Helper()
	snap, err := g.p.ExportPages()
	if err != nil {
		g.t.Fatal(err)
	}
	msg := seedMsg{incarnation: 1, mark: snap.Mark, pageSize: snap.PageSize}
	for _, pg := range snap.Pages {
		msg.pages = append(msg.pages, seedPage{pgno: pg.Pgno, data: pg.Data})
	}
	if a := g.r.applySeed(msg); !a.ok {
		g.t.Fatal("seed refused")
	}
	g.from = snap.Mark
}

// ship applies what the primary committed since the last batch; boundary
// announces a primary round at its end, which the replica runs after it.
func (g *pinRig) ship(boundary bool) {
	g.t.Helper()
	b, ok, err := g.p.ExportSince(g.from, markOf(g.p), nil)
	if err != nil || !ok {
		g.t.Fatalf("export from %d: ok=%v err=%v", g.from, ok, err)
	}
	if boundary {
		g.backfill = b.To
	}
	b.Backfill = g.backfill
	if !g.r.ApplyBatch(1, b) {
		g.t.Fatalf("batch [%d,%d) refused", b.From, b.To)
	}
	g.from = b.To
}

// scanVersion scans "t" and returns the one version all its rows carry.
// inRead runs inside the scan's callback.
func scanVersion(r *Replica, inRead func() error) (string, error) {
	var seen string
	var bad error
	n := 0
	err := r.Scan("t", func(_, v []byte) bool {
		if bad = inRead(); bad != nil {
			return false
		}
		if n == 0 {
			seen = string(v)
		} else if string(v) != seen {
			bad = fmt.Errorf("one scan saw rows at %s and at %s", seen, v)
			return false
		}
		n++
		return true
	})
	switch {
	case err != nil:
		return "", err
	case bad != nil:
		return "", bad
	case n != pinRows:
		return "", fmt.Errorf("scan saw %d rows, want %d", n, pinRows)
	}
	return seen, nil
}

// readLoop scans until stop closes, each scan at one version and no
// older than the last; a read failing with tolerate is retried, any other
// failure is sent on errs.
func readLoop(r *Replica, stop <-chan struct{}, inRead func() error, tolerate error, errs chan<- error) {
	last := ""
	for {
		select {
		case <-stop:
			return
		default:
		}
		v, err := scanVersion(r, inRead)
		switch {
		case err != nil && tolerate != nil && errors.Is(err, tolerate):
			continue
		case err != nil:
			errs <- err
			return
		case v < last:
			errs <- fmt.Errorf("a scan at %s after one at %s", v, last)
			return
		}
		last = v
	}
}

// TestPinnedReplicaReadsSeeWholeBatches runs scans against a replica
// applying batches, running a round at every fifth and taking a re-seed
// at every twentieth: every scan sees one version of every row. A round
// the scans' pins refuse waits them out and runs, no round fails, and
// the last boundary, with the readers gone, drains the journal.
func TestPinnedReplicaReadsSeeWholeBatches(t *testing.T) {
	g := newPinRig(t)
	stop := make(chan struct{})
	errs := make(chan error, pinReaders) // one failure per reader at most
	var wg sync.WaitGroup
	for i := 0; i < pinReaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLoop(g.r, stop, func() error { return nil }, nil, errs)
		}()
	}
	for k := 1; k <= 60; k++ {
		g.write()
		if k%20 == 0 {
			g.seed()
			continue
		}
		g.ship(k%5 == 0)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	g.write()
	g.ship(true)
	if n := replicaLog(g.r).FramesSinceCheckpoint(); n != 0 {
		t.Fatalf("%d frames left after a boundary with no reader", n)
	}
	if n := g.m.Count(metrics.ReplCheckpointErrors); n != 0 || g.r.Status().Degraded {
		t.Fatalf("%d round errors, degraded=%v: a refused round counted as a failure", n, g.r.Status().Degraded)
	}
}

// TestPinnedReplicaReadDefersRoundToNextBatch: a round due while a mark
// below its watermark stays pinned (here by no read, so waiting out the
// reads in flight does not free it) does not run, is no error and leaves
// the replica healthy; the next batch after the unpin runs it.
func TestPinnedReplicaReadDefersRoundToNextBatch(t *testing.T) {
	g := newPinRig(t)
	rounds := func() int64 { return g.m.Count(metrics.Checkpoints) }
	g.write()
	g.ship(true)
	before, ckptAt := rounds(), g.r.ckptAt
	mark := replicaLog(g.r).Pin()
	g.write()
	g.ship(true)
	if rounds() != before || g.r.ckptAt != ckptAt || g.r.ckptErr != nil {
		t.Fatalf("a pinned read let the round run or fail: rounds +%d, ckptAt %d -> %d, err %v",
			rounds()-before, ckptAt, g.r.ckptAt, g.r.ckptErr)
	}
	if g.m.Count(metrics.ReplCheckpointErrors) != 0 || g.r.Status().Degraded {
		t.Fatal("a round refused by a read counted as a failure")
	}
	replicaLog(g.r).Unpin(mark)
	g.write()
	g.ship(false) // carries the same watermark: the round is still due
	if rounds() != before+1 || g.r.ckptAt != g.from {
		t.Fatalf("the next batch ran %d rounds, ckptAt %d, want 1 at %d", rounds()-before, g.r.ckptAt, g.from)
	}
}

// TestPinnedReplicaRoundWaitsOutRefusingRead: a read pinned before a
// boundary batch refuses that batch's round; the round waits the read out
// and then runs, so the read costs it no batch.
func TestPinnedReplicaRoundWaitsOutRefusingRead(t *testing.T) {
	g := newPinRig(t)
	rounds := func() int64 { return g.m.Count(metrics.Checkpoints) }
	before := rounds()
	inScan, release := make(chan struct{}), make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		_, err := scanVersion(g.r, func() error {
			select {
			case <-inScan:
			default:
				close(inScan)
				<-release
			}
			return nil
		})
		scanned <- err
	}()
	<-inScan
	g.write()
	b, ok, err := g.p.ExportSince(g.from, markOf(g.p), nil)
	if err != nil || !ok {
		t.Fatalf("export: ok=%v err=%v", ok, err)
	}
	b.Backfill = b.To
	applied := make(chan bool, 1)
	go func() { applied <- g.r.ApplyBatch(1, b) }()
	// The refused round waits for the read: a read lock can no longer be
	// taken once it is waiting.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if !g.r.reads.TryRLock() {
			break
		}
		g.r.reads.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("the round never waited for the read its pin refused it")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	if !<-applied || rounds() != before+1 || g.r.ckptAt != b.To {
		t.Fatalf("the batch ran %d rounds, ckptAt %d, want 1 at %d", rounds()-before, g.r.ckptAt, b.To)
	}
}

// TestPinnedReplicaReadWaitsForNoApply: a read runs to the end while an
// apply or a round holds the replica.
func TestPinnedReplicaReadWaitsForNoApply(t *testing.T) {
	g := newPinRig(t)
	g.r.rw.Lock()
	defer g.r.rw.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := scanVersion(g.r, func() error { return nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read waited for the apply lock")
	}
}

// TestPinnedReplicaReadRacesPromote: scans run while the replica is
// promoted, on four fresh replicas. Each one finishes before Promote
// returns or gets ErrNotSeeded; none serves a row once the promoted
// database exists.
func TestPinnedReplicaReadRacesPromote(t *testing.T) {
	for i := 0; i < 4; i++ {
		racePromote(t)
	}
}

func racePromote(t *testing.T) {
	g := newPinRig(t)
	for k := 1; k <= 10; k++ {
		g.write()
		g.ship(k%5 == 0)
	}
	var promoted atomic.Bool
	inRead := func() error {
		if promoted.Load() {
			return errors.New("a read served a row after Promote returned")
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, pinReaders) // one failure per reader at most
	var started, wg sync.WaitGroup
	for i := 0; i < pinReaders; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			_, err := scanVersion(g.r, inRead)
			started.Done()
			if err != nil {
				errs <- err
				return
			}
			readLoop(g.r, stop, inRead, ErrNotSeeded, errs)
		}()
	}
	started.Wait()
	d, err := g.r.Promote(DefaultDBOptions())
	if err != nil {
		t.Fatal(err)
	}
	promoted.Store(true)
	defer d.Close()
	if _, err := scanVersion(g.r, inRead); !errors.Is(err, ErrNotSeeded) {
		t.Fatalf("a read after Promote = %v, want ErrNotSeeded", err)
	}
	// The promoted database checkpoints over the journal the reads used
	// while they keep trying.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
