package db

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/pager"
)

// commitReq is one MVCC session's commit waiting in the group-commit
// queue: its staged log stream, the same pages as frames (committed page
// images, which nobody writes again: the journal takes them when the
// group flushes), and the channel its committer blocks on until a leader
// flushes the group. until is the committer's backpressure deadline on
// the virtual clock (0 = none); the group's flush honors the earliest
// one. A request comes with the state the session borrows from the DB,
// and submit re-fills it once its committer has received from done.
type commitReq struct {
	// frames stamps the pages' versions and overlays the snapshot of a
	// session that begins while the request waits.
	frames []pager.Frame
	stream *core.Stream
	seq    uint64 // commit sequence number, stamped at enqueue
	// done holds one slot: the flush sends into it, so exactly one
	// receive follows each submit and the channel is armed again after it.
	done  chan struct{}
	until time.Duration
	err   error
	// lingers marks a flushed request whose session has not unregistered
	// yet: registered, but unable to join a group. Set by flushLocked and
	// cleared by the owner's unregister, both under gc.mu.
	lingers bool
}

// groupCommitter is the queue behind CTx.Commit. Committing MVCC
// sessions enqueue their staged streams and wait; the session whose
// arrival completes the group — GroupCommit entries, or one entry per
// registered session, whichever is smaller — flushes every queued stream
// through one CommitStreams call. A legacy Tx is never a member: it holds
// the writer slot from Begin to Commit, flushes whatever is queued, and
// commits alone (DB.commitHeldTxn).
//
// The flush rule "len(queue) >= size || len(queue) >= writers" is what
// keeps the engine deterministic AND deadlock-free: a group never waits
// for a session that is not registered, so min(GroupCommit, writers)
// bounds both the group size and the wait. A group does not wait for a
// lingering session either (see submit).
type groupCommitter struct {
	jrn  streamCommitter
	size int
	// db backs the NVRAM-space retry in flushLocked (checkpoint +
	// backoff on ErrLogFull); nil in journal-only unit tests.
	db *DB

	mu      sync.Mutex
	writers int          // registered sessions, from Begin until they finish
	queue   []*commitReq // committed sessions awaiting a flush
	// streams is flush's scratch. mu is held across a whole flush, so
	// neither it nor the queue's array can be appended to meanwhile.
	streams []*core.Stream
	// lingering counts registered sessions whose request has been flushed
	// but which have not unregistered yet. None of them is in the queue,
	// and none can commit again without unregistering.
	lingering int
	// nextSeq numbers committed transactions in journal-application
	// order. Only stamp advances it: under mu at enqueue (where queue
	// order is flush order) or inside the solo critical section (where
	// the slot serializes the journal write against any other commit).
	nextSeq uint64
	// failed latches a grouped-flush error. By the time a group flushes,
	// its pre-images are gone and later transactions have built on its
	// pages in the pager cache, so the failure cannot be rolled back —
	// the engine refuses further writes instead of corrupting state.
	failed error
	// versions is the per-page version vector behind MVCC first-
	// committer-wins validation, indexed by page number: versions[pgno] is
	// the seq of the last committed transaction that wrote pgno, 0 for a
	// page past its end (guarded by mu, grown and bumped only by stamp). A
	// session whose snapshot seq is older than a written page's entry lost
	// the race and gets ErrConflict.
	versions []uint64
}

// stamp assigns the next commit sequence number and records it in the
// page-version vector against every page of the frame set. It is the
// one place either advances — legacy, session and 2PC commits all come
// through here — so no commit can take a seq without claiming the pages
// it wrote. Caller holds mu.
func (gc *groupCommitter) stamp(frames []pager.Frame) uint64 {
	gc.nextSeq++
	for _, fr := range frames {
		if n := int(fr.Pgno) + 1 - len(gc.versions); n > 0 {
			gc.versions = append(gc.versions, make([]uint64, n)...)
		}
		gc.versions[fr.Pgno] = gc.nextSeq
	}
	return gc.nextSeq
}

// submit stamps a session's committed frame set and queues it for the
// next group flush, flushing at once when its arrival completes the
// group. Caller holds mu and the writer slot: enqueueing requires the
// slot, so queue order is flush order and the enqueue-time seq matches
// journal order. req is the caller's: one whose last submit's signal it
// received. The caller unregisters once the request is flushed.
//
// The group is complete when it reaches min(GroupCommit, writers), or
// when the one registered session not in the queue is lingering: that
// session must unregister before it can commit again, and its unregister
// would flush exactly this queue. Flushing now forms the same group,
// only without handing the flush to that session and waking this one.
func (gc *groupCommitter) submit(req *commitReq, frames []pager.Frame, stream *core.Stream, until time.Duration) {
	if req.done == nil {
		req.done = make(chan struct{}, 1)
	}
	req.frames, req.stream, req.seq = frames, stream, gc.stamp(frames)
	req.until, req.err = until, nil
	gc.queue = append(gc.queue, req)
	n := len(gc.queue)
	if n >= gc.size || n >= gc.writers || (gc.writers-n == 1 && gc.lingering == 1) {
		gc.flushLocked()
	}
}

// register announces a session that may commit through the queue.
func (gc *groupCommitter) register() {
	gc.mu.Lock()
	gc.writers++
	gc.mu.Unlock()
}

// unregister retires a session whose request was req (nil when it never
// submitted one): a flushed req stops counting as lingering in the same
// critical section. If every remaining session is already waiting in
// the queue, the group can no longer grow — flush it.
func (gc *groupCommitter) unregister(req *commitReq) {
	gc.mu.Lock()
	gc.writers--
	if req != nil && req.lingers {
		req.lingers = false
		gc.lingering--
	}
	if len(gc.queue) > 0 && len(gc.queue) >= gc.writers {
		gc.flushLocked()
	}
	gc.mu.Unlock()
}

// bail reports the latched flush failure, if any.
func (gc *groupCommitter) bail() error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.failed
}

// flushPending flushes whatever is queued. Called with the writer slot
// held (a Tx commit or prepare, checkpointing), so no new request can
// enqueue concurrently.
func (gc *groupCommitter) flushPending() error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gc.flushLocked()
	return gc.failed
}

// flushLocked drains the queue through the journal and wakes every
// waiter; each member lingers from here until its session unregisters.
// Called with gc.mu held.
func (gc *groupCommitter) flushLocked() {
	if len(gc.queue) == 0 {
		return
	}
	reqs := gc.queue
	err := gc.failed
	if err == nil {
		var tr *health.Tracker
		var start time.Duration
		if gc.db != nil {
			tr = gc.db.health.Tracker("group-flusher")
			tr.Arm()
			start = gc.db.plat.Clock.Now()
		}
		if err = gc.flushWithBackpressure(reqs); err != nil {
			gc.failed = fmt.Errorf("db: group commit failed, engine disabled: %w", err)
			err = gc.failed
		}
		if tr != nil {
			tr.Observe(gc.db.plat.Clock.Now() - start)
			tr.Beat()
			tr.Disarm()
		}
	}
	for _, r := range reqs {
		r.lingers = true
		gc.lingering++
		r.err = err
		r.done <- struct{}{}
	}
	clear(reqs)
	gc.queue = reqs[:0]
}

// flushWithBackpressure is flush plus the NVRAM-space retry. ErrLogFull
// from the NVWAL journal is pre-mutation and all-or-nothing (the whole
// group goes through one reserved append), so retrying the identical
// flush after a checkpoint is safe. Unlike the solo path, a group that
// cannot flush is terminal: its members' pre-images are gone and later
// writers have built on its pages, so a deadline expiry here latches
// the engine failed AND degrades the DB — which is why the retry only
// gives up on the earliest member deadline or on provable exhaustion.
// Called with gc.mu held; the retry's checkpoint goes through
// db.reclaim, which takes neither gc.mu nor the writer slot.
func (gc *groupCommitter) flushWithBackpressure(reqs []*commitReq) error {
	if gc.db == nil {
		return gc.flush(reqs)
	}
	dl := deadline{d: gc.db, terminal: true}
	for _, r := range reqs {
		if r.until > 0 && (dl.until == 0 || r.until < dl.until) {
			dl.until = r.until
		}
	}
	return gc.db.retryLogFull(dl, "group-deadline", func() error { return gc.flush(reqs) })
}

// streamCommitter is the one journal call a group flush makes: a bare
// NVWAL's CommitStreams. Tests put a fake in its place.
type streamCommitter interface {
	CommitStreams(streams []*core.Stream, txns int) error
}

// flush merges the queued sessions' streams under one Algorithm 1 append
// and a single commit mark.
func (gc *groupCommitter) flush(reqs []*commitReq) error {
	streams := gc.streams[:0]
	for _, r := range reqs {
		streams = append(streams, r.stream)
	}
	gc.streams = streams[:0]
	return gc.jrn.CommitStreams(streams, len(reqs))
}
