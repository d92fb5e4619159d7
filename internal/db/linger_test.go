package db

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pager"
)

// recordJournal stands in for the group flush's journal call: it logs
// nothing and records every flush as the ids of the requests it carried,
// each request's stream mapped to its id.
type recordJournal struct {
	ids     map[*core.Stream]uint32
	flushes [][]uint32
}

func (j *recordJournal) CommitStreams(streams []*core.Stream, txns int) error {
	ids := make([]uint32, len(streams))
	for i, s := range streams {
		ids[i] = j.ids[s]
	}
	j.flushes = append(j.flushes, ids)
	return nil
}

// lingerRig drives a bare groupCommitter the way CTx does: register,
// submit a request, wait, unregister.
type lingerRig struct {
	t   *testing.T
	jrn *recordJournal
	gc  *groupCommitter
}

func newLingerRig(t *testing.T, size int) *lingerRig {
	j := &recordJournal{ids: make(map[*core.Stream]uint32)}
	return &lingerRig{t: t, jrn: j, gc: &groupCommitter{jrn: j, size: size}}
}

// submit queues a one-frame request identified by id.
func (r *lingerRig) submit(id uint32) *commitReq {
	req, stream := new(commitReq), new(core.Stream)
	r.jrn.ids[stream] = id
	r.gc.mu.Lock()
	defer r.gc.mu.Unlock()
	r.gc.submit(req, []pager.Frame{{Pgno: id}}, stream, 0)
	return req
}

// flushed reports whether req's flush signal is waiting in its one-slot
// done channel, without taking it: the rig asks about a request more than
// once, and a receive would re-arm the channel.
func flushed(req *commitReq) bool { return len(req.done) == 1 }

// expect checks the registration counts and the flushes so far.
func (r *lingerRig) expect(writers, lingering int, flushes ...[]uint32) {
	r.t.Helper()
	if r.gc.writers != writers || r.gc.lingering != lingering {
		r.t.Fatalf("writers=%d lingering=%d, want %d/%d", r.gc.writers, r.gc.lingering, writers, lingering)
	}
	if fmt.Sprint(r.jrn.flushes) != fmt.Sprint(flushes) {
		r.t.Fatalf("flushes %v, want %v", r.jrn.flushes, flushes)
	}
}

// TestLingerTwoWritersFlushesOwnRequest: with writer B flushed but not yet
// unregistered, A's submit is the last request B's unregister would have
// flushed — so A flushes it itself, before submit returns, and nobody
// waits on anybody.
func TestLingerTwoWritersFlushesOwnRequest(t *testing.T) {
	r := newLingerRig(t, 8)
	r.gc.register() // A
	r.gc.register() // B
	a1 := r.submit(1)
	b1 := r.submit(2) // completes the group of two
	r.expect(2, 2, []uint32{1, 2})
	r.gc.unregister(a1)
	r.expect(1, 1, []uint32{1, 2})

	r.gc.register() // A's next transaction; B still lingers
	a2 := r.submit(3)
	if !flushed(a2) {
		t.Fatal("A's request waits for B, which can only unregister")
	}
	r.expect(2, 2, []uint32{1, 2}, []uint32{3})
	r.gc.unregister(b1)
	r.gc.unregister(a2)
	r.expect(0, 0, []uint32{1, 2}, []uint32{3})
}

// TestLingerThreeWritersWaitsForGroup: with two writers lingering, the one
// that submits still waits — one of them may come back and join. The
// first lingerer's unregister does not flush either; its next submit
// forms {C, A}, the group the old rule forms at B's unregister.
func TestLingerThreeWritersWaitsForGroup(t *testing.T) {
	r := newLingerRig(t, 8)
	r.gc.register() // A
	r.gc.register() // B
	r.gc.register() // C
	a1, b1 := r.submit(1), r.submit(2)
	r.gc.unregister(nil) // C rolls back: {A, B} cannot grow
	r.expect(2, 2, []uint32{1, 2})

	r.gc.register() // C again
	c := r.submit(3)
	if flushed(c) {
		t.Fatal("C flushed alone while A or B could still join its group")
	}
	r.gc.unregister(a1)
	if flushed(c) {
		t.Fatal("A's unregister flushed C while A could come back")
	}
	r.expect(2, 1, []uint32{1, 2})

	r.gc.register() // A again; B is now the only writer outside the queue
	a2 := r.submit(4)
	if !flushed(c) || !flushed(a2) {
		t.Fatal("A's submit left the group waiting for lingering B")
	}
	r.expect(3, 3, []uint32{1, 2}, []uint32{3, 4})
	r.gc.unregister(b1)
	r.gc.unregister(c)
	r.gc.unregister(a2)
	r.expect(0, 0, []uint32{1, 2}, []uint32{3, 4})
}

// Writer states of the model below.
const (
	mIdle     = iota // not registered
	mRunning         // registered, transaction open
	mQueued          // request submitted, not flushed
	mLingered        // request flushed, not unregistered
)

// TestLingerModelMatchesOldRule runs K looping per-transaction writers
// (begin → submit → wait → unregister, some transactions rolled back) in
// seeded random interleavings over a real groupCommitter. At every flush
// the lingering rule makes early, a copy of the state under the old rule
// ("len(queue) >= min(GroupCommit, writers)" at submit and at unregister)
// is advanced by the lingering writer's unregister alone: it must flush
// exactly the requests the early flush did. An unregister flushes only
// where the old rule does, after every step the counts must match the
// model, and a drained run ends with nothing registered.
func TestLingerModelMatchesOldRule(t *testing.T) {
	for _, k := range []int{2, 3, 8} {
		for _, size := range []int{2, k, 64} {
			early := 0
			for seed := int64(1); seed <= 20; seed++ {
				early += runLingerModel(t, k, size, seed, 400)
			}
			if early == 0 && size > 2 {
				t.Errorf("K=%d size=%d: no early flush in 20 seeds; the rule was never exercised", k, size)
			}
		}
	}
}

// runLingerModel runs one seeded interleaving and returns how many early
// flushes it checked.
func runLingerModel(t *testing.T, k, size int, seed int64, steps int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := newLingerRig(t, size)
	state := make([]int, k)
	reqs := make([]*commitReq, k)
	nextID := uint32(1)
	early := 0
	where := func() string { return fmt.Sprintf("K=%d size=%d seed=%d", k, size, seed) }

	// check moves every writer whose request a flush completed to
	// lingering and checks the committer's counts against the model.
	check := func() {
		t.Helper()
		var reg, ling, queued int
		for w := range state {
			if state[w] == mQueued && flushed(reqs[w]) {
				state[w] = mLingered
			}
			switch state[w] {
			case mRunning:
				reg++
			case mQueued:
				reg++
				queued++
			case mLingered:
				reg++
				ling++
			}
		}
		if r.gc.writers != reg || r.gc.lingering != ling || len(r.gc.queue) != queued {
			t.Fatalf("%s: writers/lingering/queued = %d/%d/%d, model %d/%d/%d", where(),
				r.gc.writers, r.gc.lingering, len(r.gc.queue), reg, ling, queued)
		}
	}
	// unregister retires writer w; an unregister flushes only what the old
	// rule flushes there.
	unregister := func(w int) {
		t.Helper()
		queued, flushes := len(r.gc.queue), len(r.jrn.flushes)
		r.gc.unregister(reqs[w])
		reqs[w] = nil
		state[w] = mIdle
		if len(r.jrn.flushes) > flushes && queued < r.gc.writers {
			t.Fatalf("%s: an unregister flushed %d requests with %d writers left", where(), queued, r.gc.writers)
		}
	}
	step := func(w int) {
		switch state[w] {
		case mIdle:
			r.gc.register()
			state[w] = mRunning
		case mRunning:
			if rng.Intn(5) == 0 {
				unregister(w)
				break
			}
			// The old rule's state just after this arrival.
			oldWriters := r.gc.writers
			oldQueue := make([]uint32, 0, len(r.gc.queue)+1)
			for _, q := range r.gc.queue {
				oldQueue = append(oldQueue, q.frames[0].Pgno)
			}
			oldQueue = append(oldQueue, nextID)
			flushes := len(r.jrn.flushes)
			reqs[w] = r.submit(nextID)
			nextID++
			state[w] = mQueued
			n := len(oldQueue)
			if !flushed(reqs[w]) || n >= size || n >= oldWriters {
				break // waiting, or a flush the old rule makes too
			}
			early++
			// The lingering writer the rule skipped: the only registered
			// writer not in the queue.
			var outside []int
			for v := range state {
				if state[v] == mRunning || state[v] == mLingered {
					outside = append(outside, v)
				}
			}
			if len(outside) != 1 || state[outside[0]] != mLingered {
				t.Fatalf("%s: early flush with registered writers outside the queue %v (states %v)", where(), outside, state)
			}
			// Old rule, advanced only by that writer's unregister.
			if oldWriters--; n < oldWriters {
				t.Fatalf("%s: the old rule would not flush %v at the lingering writer's unregister", where(), oldQueue)
			}
			if len(r.jrn.flushes) != flushes+1 || !slices.Equal(r.jrn.flushes[flushes], oldQueue) {
				t.Fatalf("%s: early flush %v, old rule flushes %v", where(), r.jrn.flushes[flushes:], oldQueue)
			}
		case mLingered:
			unregister(w)
		}
	}

	for i := 0; i < steps; i++ {
		var movable []int
		for w := range state {
			if state[w] != mQueued {
				movable = append(movable, w)
			}
		}
		if len(movable) == 0 {
			t.Fatalf("%s: every writer waits on a group nobody can flush", where())
		}
		step(movable[rng.Intn(len(movable))])
		check()
	}
	// Drain: roll back open transactions, retire lingerers, until idle.
	for {
		busy := false
		for w := range state {
			if state[w] == mRunning || state[w] == mLingered {
				unregister(w)
			}
			busy = busy || state[w] != mIdle
			check()
		}
		if !busy {
			break
		}
	}
	if r.gc.writers != 0 || r.gc.lingering != 0 || len(r.gc.queue) != 0 {
		t.Fatalf("%s: drained run left writers=%d lingering=%d queued=%d", where(), r.gc.writers, r.gc.lingering, len(r.gc.queue))
	}
	return early
}

// gcCounts reads the committer's registration counts under its lock.
func gcCounts(d *DB) (writers, lingering int) {
	d.gc.mu.Lock()
	defer d.gc.mu.Unlock()
	return d.gc.writers, d.gc.lingering
}

func expectUnregistered(t *testing.T, d *DB, after string) {
	t.Helper()
	if w, l := gcCounts(d); w != 0 || l != 0 {
		t.Fatalf("after %s: writers=%d lingering=%d, want 0/0", after, w, l)
	}
}

// TestLingerRegistrationAccounting takes real sessions through every way
// a CTx ends — commit, ErrConflict, Rollback, a no-op commit, an ErrBusy
// deadline, a latched group failure, and concurrent RunConcurrent loops —
// and requires the committer to be left with no writer registered and
// none lingering each time.
func TestLingerRegistrationAccounting(t *testing.T) {
	t.Run("commit-conflict-rollback-noop", func(t *testing.T) {
		d, _ := newDB(t, concurrentOpts(8))
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		mustCommitKV(t, d, "t", map[string]string{"k": "base"})

		tx, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("t", []byte("a"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		expectUnregistered(t, d, "commit")

		// Two sessions on one page: the winner waits in the queue for the
		// loser, whose conflict unregisters it and flushes the winner.
		a, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Update("t", []byte("k"), []byte("from-a")); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Update("t", []byte("k"), []byte("from-b")); err != nil {
			t.Fatal(err)
		}
		aErr := make(chan error, 1)
		go func() { aErr <- a.Commit() }()
		waitQueued(t, d, 1)
		if err := b.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("second committer: want ErrConflict, got %v", err)
		}
		if err := <-aErr; err != nil {
			t.Fatalf("first committer: %v", err)
		}
		expectUnregistered(t, d, "ErrConflict")

		tx, err = d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("t", []byte("r"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		tx.Rollback()
		expectUnregistered(t, d, "Rollback")

		tx, err = d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Update("t", []byte("k"), []byte("from-a")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil || tx.Seq() != 0 {
			t.Fatalf("byte-identical commit: seq %d, err %v", tx.Seq(), err)
		}
		expectUnregistered(t, d, "a no-op commit")
	})

	t.Run("busy-deadline", func(t *testing.T) {
		opts := concurrentOpts(8)
		opts.CommitTimeout = 2 * time.Millisecond
		d, _ := newTinyHeapDB(t, 64, opts)
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		mustCommitKV(t, d, "t", map[string]string{"seed": "v"})
		rd, err := d.BeginRead() // pins the log: nothing can be reclaimed
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		busy := false
		for i := 0; i < 100 && !busy; i++ {
			err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
				return tx.Insert("t", []byte(fmt.Sprintf("fill%d", i)), make([]byte, 2048))
			})
			assertCleanPressureErr(t, err)
			busy = errors.Is(err, ErrBusy)
			expectUnregistered(t, d, fmt.Sprintf("session %d (%v)", i, err))
		}
		if !busy {
			t.Fatal("100 fill sessions against a pinned 64-page heap never hit ErrBusy")
		}
	})

	t.Run("latched-failure", func(t *testing.T) {
		d, _ := newDB(t, concurrentOpts(8))
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		d.gc.jrn = &faultJournal{Journal: d.jrn, failCommits: 99}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for s := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[s] = d.RunConcurrent(context.Background(), func(tx *CTx) error {
					return tx.Insert("t", []byte(fmt.Sprintf("k%d", s)), []byte("v"))
				})
			}()
		}
		wg.Wait()
		for s, err := range errs {
			if !errors.Is(err, errInjected) {
				t.Fatalf("session %d: %v, want the latched flush failure", s, err)
			}
		}
		expectUnregistered(t, d, "a latched group failure")
		if _, err := d.BeginConcurrent(); !errors.Is(err, errInjected) {
			t.Fatalf("BeginConcurrent after the latch: %v", err)
		}
		expectUnregistered(t, d, "a Begin refused by the latch")
	})

	t.Run("concurrent", func(t *testing.T) {
		const workers, txns = 4, 40
		d, _ := newDB(t, concurrentOpts(workers))
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < txns; i++ {
					key := []byte(fmt.Sprintf("k%d", rng.Intn(8)))
					err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
						if rng.Intn(4) == 0 {
							return errRolledBack
						}
						return tx.Insert("t", key, []byte(fmt.Sprintf("w%d-%d", w, i)))
					})
					if err != nil && !errors.Is(err, errRolledBack) {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		expectUnregistered(t, d, "concurrent sessions")
		if err := d.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

var errRolledBack = errors.New("rolled back by the test")
