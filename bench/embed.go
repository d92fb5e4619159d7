package main

import (
	"context"
	"errors"
	"time"

	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// record is mobibench's record size, the paper's 100 bytes.
var record = []workload.SizeShare{{Bytes: 100, Weight: 1}}

func embedded(cfg config, tr *tracer, opts db.Options, drivers int) (*rig, error) {
	plat, err := platform.NewNexus5()
	if err != nil {
		return nil, err
	}
	opts.Journal, opts.NVWAL, opts.CPU = db.JournalNVWAL, core.VariantUHLSDiff(), db.CPUNexus5
	d, err := db.Open(plat, "bench.db", opts)
	if err != nil {
		return nil, err
	}
	r := &rig{
		cfg: cfg, tr: tr, model: newModel(cfg.scaled(100_000), drivers),
		clock: plat.Clock, plat: plat, dbName: "bench.db", dbOpts: opts, d: d,
		sys: plat.Metrics.Snapshot, node: plat.Metrics.Snapshot,
		stop: func() {},
	}
	return r, r.populate(record)
}

// buildEmbedWrite is the paper's own configuration: one goroutine, the
// legacy Tx, one 100-B record per transaction; inserts of fresh keys,
// zipfian updates and deletes of the oldest inserted key in proportions
// that keep the tree at a steady size, plus point reads that hit the
// pager cache.
func buildEmbedWrite(cfg config, tr *tracer) (*rig, error) {
	r, err := embedded(cfg, tr, db.Options{}, 1)
	if err != nil {
		return nil, err
	}
	r.exec, r.tailKind = execEmbedWrite, workload.Update
	return r, r.newWorkers(1, workload.Spec{
		Mix: []workload.Share{
			{Kind: workload.Insert, N: 1, Weight: 27},
			{Kind: workload.Update, N: 1, Weight: 36},
			{Kind: workload.Delete, N: 1, Weight: 27},
			{Kind: workload.Read, N: 1, Weight: 10},
		},
		Keys: len(r.model.ver), ZipfS: 1.1, Sizes: record,
	}, []*simclock.Clock{r.clock})
}

// sub records an embedded call's span when tracing and returns the
// span's end, the next one's start.
func (w *worker) sub(l layer, start time.Time) time.Time {
	now := time.Now()
	w.r.tr.record(l, w.req, start, now, 0, 0)
	return now
}

func execEmbedWrite(w *worker, op *workload.Op) {
	r, m, k := w.r, w.r.model, op.Keys[0]
	key := workload.AppendKey(w.keys[0][:0], k)
	if op.Kind == workload.Read {
		want := m.version(k)
		t0 := time.Now()
		val, found, err := r.d.Get(table, key)
		if w.readDone(t0, time.Now(), err) {
			m.checkRead(k, val, found, want, want, 0, false)
		}
		return
	}
	var ver uint32
	if op.Kind == workload.Update {
		ver = m.version(k) + 1
	}
	val := w.vals[0][:op.Sizes[0]]
	workload.FillValue(val, k, ver)
	traced := r.tr.enabled()
	var seq uint64
	v0, t0 := w.lane.Now(), time.Now()
	tx, err := r.d.Begin()
	if err == nil {
		ts := t0
		if traced {
			ts = w.sub(spanBegin, ts)
		}
		ok := true
		switch op.Kind {
		case workload.Insert:
			err = tx.Insert(table, key, val)
		case workload.Update:
			ok, err = tx.Update(table, key, val)
		case workload.Delete:
			ok, err = tx.Delete(table, key)
		}
		if err == nil && !ok {
			err = errMissing
		}
		if traced {
			ts = w.sub(spanOp, ts)
		}
		if err != nil {
			tx.Rollback()
		} else if err = tx.Commit(); err == nil || errors.Is(err, db.ErrCheckpointDeferred) {
			err, seq = nil, tx.Seq()
		}
		if traced {
			w.sub(spanCommit, ts)
		}
	}
	t1, v1 := time.Now(), w.lane.Now()
	bytes := len(key)
	if op.Kind != workload.Delete {
		bytes += len(val)
	}
	acked := w.writeDone(t0, t1, v0, v1, bytes, err)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &m.fresh[w.id]
	switch {
	case acked && op.Kind == workload.Update:
		m.ackSeq(w.id, seq)
		m.ackWrite(k, ver, len(val), seq)
	case acked && op.Kind == workload.Insert:
		m.ackSeq(w.id, seq)
		f.inserted++
	case acked:
		m.ackSeq(w.id, seq)
		f.deleted++
	case op.Kind == workload.Update:
		m.unsure[k] = true
	case op.Kind == workload.Insert:
		m.freshUnsure[k] = true
		f.inserted++
	default:
		m.freshUnsure[k] = true
		f.deleted++
	}
}

// session is a session-mix driver's state: what its pre-built
// callbacks read and write, so that no closure is made per op.
type session struct {
	w      *worker
	tx     *db.CTx
	op     *workload.Op
	ver    uint32 // version the read-modify-write wrote
	bad    bool   // the callback saw an answer the oracle rejects
	n      int    // records the scan has visited
	traced bool
	rmw    func(*db.CTx) error
	insert func(*db.CTx) error
	visit  func(key, val []byte) bool
}

// buildSessionMix drives the same engine the other way round: two MVCC
// session workers, group commit, background checkpoints; read-modify-
// write sessions and multi-record insert sessions beside snapshot point
// reads and short range scans, which bypass the pager cache.
func buildSessionMix(cfg config, tr *tracer) (*rig, error) {
	const drivers = 2
	r, err := embedded(cfg, tr, db.Options{Concurrent: true, GroupCommit: 2, BackgroundCheckpoint: true}, drivers)
	if err != nil {
		return nil, err
	}
	r.exec, r.tailKind = execSessionMix, workload.RMW
	r.model.chain = make([]uint32, len(r.model.ver))
	// Both lanes exist before either driver starts: a lane made later
	// would start at whatever time the other had pushed the clock to.
	lanes := []*simclock.Clock{r.clock.NewLane(), r.clock.NewLane()}
	err = r.newWorkers(drivers, workload.Spec{
		Mix: []workload.Share{
			{Kind: workload.RMW, N: 1, Weight: 40},
			{Kind: workload.Insert, N: 4, Weight: 10},
			{Kind: workload.SnapGet, N: 1, Weight: 35},
			{Kind: workload.Scan, N: 20, Weight: 15},
		},
		Keys: len(r.model.ver), ZipfS: 1.1, Sizes: record,
	}, lanes)
	for _, w := range r.workers {
		s := &session{w: w}
		s.rmw, s.insert, s.visit = s.doRMW, s.doInsert, s.doVisit
		w.ext = s
	}
	return r, err
}

func (s *session) doRMW(tx *db.CTx) error {
	w, k := s.w, s.op.Keys[0]
	s.tx = tx
	tx.SetClock(w.lane)
	var ts time.Time
	if s.traced {
		ts = time.Now()
	}
	old, found, err := tx.Get(table, w.keys[0])
	if err != nil {
		return err
	}
	ver, ok := workload.CheckValue(old, k)
	if !found || !ok {
		s.bad = true
		return errMissing
	}
	s.ver = ver + 1
	val := w.vals[0][:s.op.Sizes[0]]
	workload.FillValue(val, k, s.ver)
	if ok, err = tx.Update(table, w.keys[0], val); err == nil && !ok {
		err = errMissing
	}
	if s.traced {
		w.sub(spanOp, ts)
	}
	return err
}

func (s *session) doInsert(tx *db.CTx) error {
	w := s.w
	s.tx = tx
	tx.SetClock(w.lane)
	var ts time.Time
	if s.traced {
		ts = time.Now()
	}
	for i := 0; i < s.op.N; i++ {
		if err := tx.Insert(table, w.keys[i], w.vals[i][:s.op.Sizes[i]]); err != nil {
			return err
		}
	}
	if s.traced {
		w.sub(spanOp, ts)
	}
	return nil
}

// doVisit checks one scanned record: populated keys are never deleted,
// so the i-th record of a scan from key k is key k+i while that is a
// populated key, and whatever follows is a fresh key in order.
func (s *session) doVisit(key, val []byte) bool {
	idx, ok := workload.KeyIndex(key)
	want := s.op.Keys[0] + uint32(s.n)
	if int(want) < len(s.w.r.model.ver) {
		ok = ok && idx == want
	} else {
		ok = ok && int(idx) >= len(s.w.r.model.ver)
	}
	if ok {
		_, ok = workload.CheckValue(val, idx)
	}
	if !ok {
		s.bad = true
	}
	s.n++
	return s.n < s.op.N
}

func execSessionMix(w *worker, op *workload.Op) {
	r, m, s, k := w.r, w.r.model, w.ext.(*session), op.Keys[0]
	s.op, s.bad, s.traced = op, false, r.tr.enabled()
	w.keys[0] = workload.AppendKey(w.keys[0][:0], k)
	switch op.Kind {
	case workload.RMW, workload.Insert:
		fn, bytes := s.rmw, workload.KeyLen+op.Sizes[0]
		if op.Kind == workload.Insert {
			fn, bytes = s.insert, 0
			for i := 0; i < op.N; i++ {
				w.keys[i] = workload.AppendKey(w.keys[i][:0], op.Keys[i])
				workload.FillValue(w.vals[i][:op.Sizes[i]], op.Keys[i], 0)
				bytes += workload.KeyLen + op.Sizes[i]
			}
		}
		v0, t0 := w.lane.Now(), time.Now()
		err := r.d.RunConcurrent(context.Background(), fn)
		t1, v1 := time.Now(), w.lane.Now()
		if errors.Is(err, db.ErrCheckpointDeferred) {
			err = nil
		}
		if s.traced {
			// Begin and Commit happen inside RunConcurrent and cannot be
			// told apart from outside: what is not the callback is
			// reported as commit.
			r.tr.record(spanCommit, w.req, t0, t1, 0, 0)
		}
		acked := w.writeDone(t0, t1, v0, v1, bytes, err)
		m.mu.Lock()
		defer m.mu.Unlock()
		if s.bad {
			m.violate("key %d: session read a value that is not a value written for this key", k)
		}
		switch {
		case acked && op.Kind == workload.RMW:
			m.ackSeq(w.id, s.tx.Seq())
			m.chain[k]++
			m.ackWrite(k, s.ver, op.Sizes[0], s.tx.Seq())
		case acked:
			m.ackSeq(w.id, s.tx.Seq())
			m.fresh[w.id].inserted += uint32(op.N)
		case op.Kind == workload.RMW:
			m.unsure[k] = true
		default:
			for i := 0; i < op.N; i++ {
				m.freshUnsure[op.Keys[i]] = true
			}
			m.fresh[w.id].inserted += uint32(op.N)
		}
	case workload.SnapGet:
		lo := m.version(k)
		t0 := time.Now()
		rt, err := r.d.BeginRead()
		var val []byte
		var found bool
		if err == nil {
			ts := t0
			if s.traced {
				ts = w.sub(spanBegin, ts)
			}
			val, found, err = rt.Get(table, w.keys[0])
			if s.traced {
				w.sub(spanOp, ts)
			}
			rt.Close()
		}
		if w.readDone(t0, time.Now(), err) {
			// The other driver may have committed one write the model has
			// not recorded yet.
			m.checkRead(k, val, found, lo, m.version(k), uint32(len(r.workers)-1), false)
		}
	case workload.Scan:
		s.n = 0
		t0 := time.Now()
		rt, err := r.d.BeginRead()
		if err == nil {
			err = rt.ScanRange(table, w.keys[0], nil, s.visit)
			rt.Close()
		}
		t1 := time.Now()
		if err != nil {
			w.st.failed++
			return
		}
		w.st.reads++
		w.st.scan.Observe(int64(t1.Sub(t0)))
		if s.traced {
			r.tr.record(spanScan, w.req, t0, t1, 0, 0)
		}
		if s.bad || (s.n != op.N && int(k)+op.N <= len(m.ver)) {
			m.mu.Lock()
			m.violate("scan of %d records from key %d: visited %d, bad record=%v", op.N, k, s.n, s.bad)
			m.mu.Unlock()
		}
	}
}
