package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/simclock"
)

// CommitAllocsRow is one commit-path shape of the allocation audit:
// host-side allocations per operation (the quantity DESIGN.md §15's
// zero-copy work drives down) next to the wall-clock latency
// percentiles of the same loop. Virtual-time metrics are untouched by
// this experiment — it audits the simulator's own cost, not the
// paper's.
type CommitAllocsRow struct {
	Path        string  `json:"path"`
	Ops         int     `json:"ops"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	P50Ns       int64   `json:"p50_commit_ns"`
	P99Ns       int64   `json:"p99_commit_ns"`
}

// CommitAllocsResult holds the audit across commit-path shapes.
type CommitAllocsResult struct {
	Rows []CommitAllocsRow `json:"rows"`
}

// CommitAllocs measures steady-state heap allocations per operation on
// the commit-path shapes the zero-copy work targets — a solo end-to-end
// transaction (B-tree insert through NVWAL), a group commit driven
// straight at the journal, and a legacy transaction updating one cached
// page — on the three versioned read paths that share the log's page
// images and a replica read served over a simulated conn
// (readPathAllocs), on a replica applying shipped batches
// (replicaApplyAllocs), on a served write shipped to a replica
// (replicatedPutAllocs), on a read served over a real socket
// (servedGetAllocs), and on the simulated hardware under all of them
// (simulatorAllocs).
// Measurement is runtime.MemStats deltas (Mallocs and TotalAlloc are
// monotonic, so a concurrent GC cannot skew them) over a single
// measuring goroutine.
func CommitAllocs(txns int) (*CommitAllocsResult, error) {
	if txns <= 0 {
		txns = 300
	}
	res := &CommitAllocsResult{}

	solo, update, err := soloCommitAllocs(txns)
	if err != nil {
		return nil, err
	}
	group, err := groupCommitAllocs(txns)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, solo, group, update)

	reads, err := readPathAllocs(txns)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, reads...)

	apply, err := replicaApplyAllocs(txns)
	if err != nil {
		return nil, err
	}
	put, err := replicatedPutAllocs(txns)
	if err != nil {
		return nil, err
	}
	get, err := servedGetAllocs(txns)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, apply, put, get)

	line, blk, err := simulatorAllocs(txns)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, line, blk)
	return res, nil
}

// measureAllocs runs op n times on the calling goroutine and returns
// the allocation and latency profile. A warmup round runs first so
// one-time pool/scratch growth is not billed to the steady state under
// audit.
func measureAllocs(path string, n int, op func(i int) error) (CommitAllocsRow, error) {
	const warmup = 16
	for i := 0; i < warmup; i++ {
		if err := op(i); err != nil {
			return CommitAllocsRow{}, err
		}
	}
	lats := make([]time.Duration, 0, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(warmup + i); err != nil {
			return CommitAllocsRow{}, err
		}
		lats = append(lats, time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	slices.Sort(lats)
	return CommitAllocsRow{
		Path:        path,
		Ops:         n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		P50Ns:       int64(quantile(lats, 0.50)),
		P99Ns:       int64(quantile(lats, 0.99)),
	}, nil
}

// soloCommitAllocs drives one-record transactions end to end through
// the database layer: inserts of fresh keys (the BenchmarkCommitPath
// shape, solo-commit), then updates of one record on a page the cache
// already holds (legacy-update). An update's only page-sized allocation
// is the transaction's private copy of that page — made when the B-tree
// dirties it, then handed to the journal as the page's new version.
func soloCommitAllocs(txns int) (solo, update CommitAllocsRow, err error) {
	// A checkpoint limit far above the transaction count keeps
	// checkpoint I/O out of the audited loop.
	s, err := newSetup(Tuna.newPlatform, db.Options{
		Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), CPU: Tuna.cpu(), CheckpointLimit: 1 << 20,
	}, "bench")
	if err != nil {
		return solo, update, err
	}
	val := make([]byte, 100)
	key := make([]byte, 8)
	// Both rows call DB.Begin directly and keep the handle local, as an
	// application does: through a func value (commitTxn's begin) the
	// handle would go to the heap whatever Begin does.
	solo, err = measureAllocs("solo-commit", txns, func(i int) error {
		binary.BigEndian.PutUint64(key, uint64(i))
		tx, err := s.DB.Begin()
		if err != nil {
			return err
		}
		if err := tx.Insert("bench", key, val); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	})
	if err != nil {
		return solo, update, err
	}
	binary.BigEndian.PutUint64(key, 7)
	update, err = measureAllocs("legacy-update", txns, func(i int) error {
		val[0] = byte(i)
		tx, err := s.DB.Begin()
		if err != nil {
			return err
		}
		if ok, err := tx.Update("bench", key, val); err != nil || !ok {
			tx.Rollback()
			return fmt.Errorf("experiments: update of key 7: found=%v err=%v", ok, err)
		}
		return tx.Commit()
	})
	if err != nil {
		return solo, update, err
	}
	return solo, update, s.DB.Close()
}

// groupCommitAllocs drives the group commit the database layer runs, at
// the journal: per operation, 4 reused streams each stage one page
// against its last image, then one CommitStreams call logs them. A
// successful commit takes each staged image, so every member writes a
// fresh copy of its last one — the copy a session's MarkDirty would make.
func groupCommitAllocs(txns int) (CommitAllocsRow, error) {
	var zero CommitAllocsRow
	s, err := NewNVWALSetup(Tuna, core.VariantUHLSDiff(), 1<<20)
	if err != nil {
		return zero, err
	}
	nv, ok := s.DB.Journal().(*core.NVWAL)
	if !ok {
		return zero, fmt.Errorf("experiments: the NVWAL setup's journal is %T", s.DB.Journal())
	}
	const members = 4
	const ps = 4096 // db.Open's default page size
	streams := make([]*core.Stream, members)
	last := make([][]byte, members)
	for g := range streams {
		streams[g] = nv.NewStream()
	}
	group, err := measureAllocs("group-commit", txns, func(i int) error {
		for g, st := range streams {
			// A small dirty region per member keeps the differential
			// logger on its steady-state diff path.
			page := make([]byte, ps)
			copy(page, last[g])
			binary.LittleEndian.PutUint64(page[(i%64)*16:], uint64(i+1))
			st.Reset()
			if _, err := st.StagePage(uint32(100+g), page, last[g]); err != nil {
				return err
			}
			last[g] = page
		}
		return nv.CommitStreams(streams, members)
	})
	if err != nil {
		return zero, err
	}
	return group, s.DB.Close()
}

// readPathAllocs audits the versioned readers over a log that is partly
// checkpointed (some pages fully backfilled, some with frames above the
// backfill watermark): a snapshot point read (BeginRead, Get, Close), a
// snapshot range scan of 20 records, an MVCC session read-modify-write
// (RunConcurrent: Get then Update) and a replica GET, direct and served
// to a Client over a simulated conn. A snapshot or replica read
// allocates nothing page-sized — every page it visits is an image the
// log retains anyway — a scan hands out views of those images and copies
// no record, and a session copies only the pages it writes.
func readPathAllocs(txns int) ([]CommitAllocsRow, error) {
	const keys, scanLen = 2000, 20
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i%keys)) }
	val := make([]byte, 100)

	s, err := newSetup(Tuna.newPlatform, db.Options{
		Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(),
		Concurrent: true, CheckpointLimit: -1,
	}, "bench")
	if err != nil {
		return nil, err
	}
	d := s.DB
	// Load, backfill everything, then rewrite a quarter of the keys.
	put := func(from, step int) error {
		_, err := commitTxn(d.Begin, s.Plat.Clock.Now, func(tx *db.Tx) error {
			for i := from; i < keys; i += step {
				if err := tx.Insert("bench", key(i), val); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}
	if err := put(0, 1); err != nil {
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		return nil, err
	}
	val[0] = 1
	if err := put(0, 4); err != nil {
		return nil, err
	}

	snap, err := measureAllocs("snapshot-get", txns, func(i int) error {
		rt, err := d.BeginRead()
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, ok, err := rt.Get("bench", key(i*7)); err != nil || !ok {
			return fmt.Errorf("experiments: snapshot read of %s: found=%v err=%v", key(i*7), ok, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scan, err := measureAllocs("snapshot-scan", txns, func(i int) error {
		rt, err := d.BeginRead()
		if err != nil {
			return err
		}
		defer rt.Close()
		n := 0
		err = rt.ScanRange("bench", key(i*7%(keys-scanLen)), nil, func(_, _ []byte) bool { n++; return n < scanLen })
		if err == nil && n != scanLen {
			err = fmt.Errorf("experiments: snapshot scan from %s visited %d records, want %d", key(i*7%(keys-scanLen)), n, scanLen)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rmw, err := measureAllocs("session-rmw", txns, func(i int) error {
		return d.RunConcurrent(context.Background(), func(tx *db.CTx) error {
			v, ok, err := tx.Get("bench", key(i*7))
			if err != nil || !ok {
				return fmt.Errorf("experiments: session read of %s: found=%v err=%v", key(i*7), ok, err)
			}
			v[1]++
			_, err = tx.Update("bench", key(i*7), v)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}

	// The seed left every page of the replica's journal backfilled and the
	// 200 shipped writes are frames above that watermark (a replica
	// checkpoints when its primary does, which these writes never reach),
	// so its log is partly checkpointed too.
	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: 20 * time.Microsecond}, 5, "n0", "n1")
	if err != nil {
		return nil, err
	}
	pn, err := c.StartPrimary("n0", repl.DefaultDBOptions(), repl.PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
	if err != nil {
		return nil, err
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		return nil, err
	}
	rn, err := c.StartReplica("n1", repl.ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		return nil, err
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	const replKeys = 200
	for i := 0; i < replKeys; i++ {
		if _, err := pn.Repl.Apply(context.Background(), "kv", []server.Op{{Key: key(i), Value: val}}); err != nil {
			return nil, err
		}
	}
	rget, err := measureAllocs("replica-get", txns, func(i int) error {
		if _, ok, err := rn.R.Get("kv", key(i%replKeys)); err != nil || !ok {
			return fmt.Errorf("experiments: replica read of %s: found=%v err=%v", key(i%replKeys), ok, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The same read served: one Client.Get over a simulated conn to the
	// replica's server, whose engine appends the value into the response.
	// Its keys are made beforehand, so that the row counts the read alone.
	cli := server.NewClient(c.Dialer("client"), []string{"n1"}, server.ClientOptions{ReadAnywhere: true})
	defer cli.Close()
	keyed := make([][]byte, replKeys)
	for i := range keyed {
		keyed[i] = key(i)
	}
	served, err := measureAllocs("replica-served-get", txns, func(i int) error {
		if _, ok, err := cli.Get("kv", keyed[i%replKeys]); err != nil || !ok {
			return fmt.Errorf("experiments: served replica read of %s: found=%v err=%v", keyed[i%replKeys], ok, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []CommitAllocsRow{snap, scan, rmw, rget, served}, nil
}

// replicaApplyAllocs audits the replica apply path alone: a primary's
// batches (one 100 B update each) are cut beforehand, then handed to a
// seeded, caught-up replica in-process, so neither the primary's commit
// nor the wire is in the measured loop. The row is per applied PAGE: a
// page costs one image copy — the clone of the journal's current image
// that the batch patches and the journal then keeps as the new version.
func replicaApplyAllocs(txns int) (CommitAllocsRow, error) {
	var zero CommitAllocsRow
	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: 20 * time.Microsecond}, 5, "n0", "n1")
	if err != nil {
		return zero, err
	}
	// No primary checkpoint, so no boundary and no replica round: like the
	// commit rows, the audited loop carries no checkpoint I/O.
	opts := repl.DefaultDBOptions()
	opts.CheckpointLimit = -1
	pn, err := c.StartPrimary("n0", opts, repl.PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
	if err != nil {
		return zero, err
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		return zero, err
	}
	rn, err := c.StartReplica("n1", repl.ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		return zero, err
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	const keys = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i%keys)) }
	val := make([]byte, 100)
	var eng server.Engine = pn.Repl
	write := func(i int) error {
		val[0] = byte(i)
		_, err := eng.Apply(context.Background(), "kv", []server.Op{{Key: key(i), Value: val}})
		return err
	}
	for i := 0; i < keys; i++ {
		if err := write(i); err != nil {
			return zero, err
		}
	}
	// Semi-sync, quorum 1 of 1: the replica has applied every write. Stop
	// the shipping, commit locally and play the primary by hand from here.
	pn.Repl.Close()
	eng = server.NewDBEngine(pn.DB, 1)
	const warmup = 16 // measureAllocs' own
	batches := make([]core.ExportBatch, 0, warmup+txns)
	pages := 0
	for i := 0; i < cap(batches); i++ {
		if err := write(keys + i*7); err != nil {
			return zero, err
		}
		from := rn.R.Applied()
		if n := len(batches); n > 0 {
			from = batches[n-1].To
		}
		b, ok, err := pn.DB.ExportSince(from, nil)
		if err != nil || !ok {
			return zero, fmt.Errorf("experiments: export from %d: ok=%v err=%v", from, ok, err)
		}
		batches = append(batches, b)
		if i >= warmup {
			seen := map[uint32]bool{}
			for _, fr := range b.Frames {
				seen[fr.Pgno] = true
			}
			pages += len(seen)
		}
	}
	row, err := measureAllocs("replica-apply", txns, func(i int) error {
		if !rn.R.ApplyBatch(1, batches[i]) {
			return fmt.Errorf("experiments: replica refused batch %d [%d,%d)", i, batches[i].From, batches[i].To)
		}
		return nil
	})
	if err != nil {
		return zero, err
	}
	for _, b := range batches {
		if len(b.Frames) > 0 {
			pn.DB.ExportDone()
		}
	}
	perPage := float64(txns) / float64(pages)
	row.Ops, row.AllocsPerOp, row.BytesPerOp = pages, row.AllocsPerOp*perPage, row.BytesPerOp*perPage
	return row, nil
}

// replicatedPutAllocs audits a served, replicated write whole: one PUT
// from a server.Client over netsim to a semi-sync primary (AckReplicas 1),
// its commit, the batch shipped to the replica, the replica's apply and
// ack, and the response — every goroutine on the path, which is what
// runtime.MemStats counts. What a write must allocate is its messages'
// wire copies (request, frames, ack, response), the page images the
// primary and the replica keep, and the client's and server's protocol
// buffers; the rest of the path is state its owners re-arm. As in the
// commit rows, no checkpoint runs in the audited loop.
func replicatedPutAllocs(txns int) (CommitAllocsRow, error) {
	var zero CommitAllocsRow
	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: 20 * time.Microsecond}, 5, "n0", "n1")
	if err != nil {
		return zero, err
	}
	opts := repl.DefaultDBOptions()
	opts.CheckpointLimit = -1
	pn, err := c.StartPrimary("n0", opts, repl.PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
	if err != nil {
		return zero, err
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		return zero, err
	}
	rn, err := c.StartReplica("n1", repl.ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		return zero, err
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("client"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
	}
	val := make([]byte, 100)
	for i := range keys { // every key's leaf exists before the audit
		if _, err := cli.Put("kv", keys[i], val); err != nil {
			return zero, err
		}
	}
	return measureAllocs("replicated-put", txns, func(i int) error {
		val[0] = byte(i)
		_, err := cli.Put("kv", keys[i*7%len(keys)], val)
		return err
	})
}

// servedGetAllocs is the read of the serve-tcp benchmark: one Client.Get
// over a loopback socket (ListenTCP/DialTCP) to a server on a DBEngine,
// for a 256 B value. It counts both ends of the socket — the client, the
// server's session and the engine — as the measuring goroutine waits on
// the session for each response.
func servedGetAllocs(txns int) (CommitAllocsRow, error) {
	var zero CommitAllocsRow
	s, err := newSetup(Tuna.newPlatform, db.Options{
		Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true,
	}, "kv")
	if err != nil {
		return zero, err
	}
	defer s.DB.Close()
	lis, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		return zero, err
	}
	srv := server.New(server.NewDBEngine(s.DB, 1), server.Options{Epoch: 1})
	go srv.Serve(lis)
	defer srv.Close()
	cli := server.NewClient(netsim.DialTCP, []string{lis.Addr()}, server.ClientOptions{})
	defer cli.Close()
	keys := make([][]byte, 200)
	val := make([]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
		if _, err := cli.Put("kv", keys[i], val); err != nil {
			return zero, err
		}
	}
	return measureAllocs("served-get", txns, func(i int) error {
		_, found, err := cli.Get("kv", keys[i*7%len(keys)])
		if err == nil && !found {
			err = fmt.Errorf("served-get: key %q not found", keys[i*7%len(keys)])
		}
		return err
	})
}

// simulatorAllocs audits the simulated hardware itself, which every row
// above runs on. sim-line is what flushing a cache line allocates: its
// op is one commit-shaped burst of 48 lines (one gather store, the flush
// batch, dmb, persist barrier — memsim's BenchmarkCommitShapedFlush), so
// the gate's slack of 2 allocations per op is 1/24 of one per line, and
// the line table and counter cells must stay at 0. blockdev-write is one
// page program and the Sync that makes it durable, on a device that has
// seen the page before: the buffer the Sync replaces is the next write's.
func simulatorAllocs(txns int) (line, blk CommitAllocsRow, err error) {
	const lines = 48
	dom := memsim.New(memsim.Config{Size: 16 << 20}, simclock.New(), &metrics.Counters{})
	ls := uint64(dom.LineSize())
	hdr, payload := make([]byte, ls), make([]byte, (lines-1)*ls)
	line, err = measureAllocs("sim-line", txns, func(i int) error {
		addr := uint64(i%1024) * lines * ls
		dom.WriteV(addr, hdr, payload)
		dom.CacheLineFlush(addr, addr+lines*ls)
		dom.MemoryBarrier()
		dom.PersistBarrier()
		return nil
	})
	if err != nil {
		return line, blk, err
	}

	dev := blockdev.New(blockdev.Config{Pages: 64}, simclock.New(), &metrics.Counters{}, nil)
	img := make([]byte, dev.PageSize())
	blk, err = measureAllocs("blockdev-write", txns, func(i int) error {
		// 8 pages: measureAllocs' warmup programs each of them twice.
		if err := dev.WritePage(i%8, img, "db"); err != nil {
			return err
		}
		return dev.Sync()
	})
	return line, blk, err
}

// Print renders the audit.
func (r *CommitAllocsResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Commit-path allocation audit (host-side allocs; NVWAL UH+LS+Diff on Tuna)")
	fmt.Fprintf(w, "%-18s %6s %12s %12s %10s %10s\n",
		"path", "ops", "allocs/op", "bytes/op", "p50(µs)", "p99(µs)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %6d %12.2f %12.1f %10.1f %10.1f\n",
			row.Path, row.Ops, row.AllocsPerOp, row.BytesPerOp,
			float64(row.P50Ns)/1000, float64(row.P99Ns)/1000)
	}
}
