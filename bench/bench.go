package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/bench/hist"
	"repro/bench/workload"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/simclock"
)

const table = "kv"

// config is one repetition's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// ops, when > 0, fixes the measured window's op count instead of its
	// duration: the same seed then runs the same ops, and the virtual
	// metrics of the single-driver workloads repeat exactly.
	ops   uint64
	trace bool
	// scale, when set, shrinks key spaces, warm-up and the recovery tail.
	// Only the tests set it.
	scale float64
	// traceDir receives a traced repetition's trace-<workload>.json.
	traceDir string
}

func (c config) scaled(n int) int {
	if c.scale == 0 {
		return n
	}
	if v := int(float64(n) * c.scale); v > 16 {
		return v
	}
	return 16
}

// stats is what one driver measured in one phase.
type stats struct {
	read, write, vwrite, scan hist.H // host point reads, host writes, virtual writes, host scans (ns)
	attempted, failed         uint64
	reads, writes             uint64 // completed
	userBytes                 uint64 // key+value bytes of completed writes
}

func (s *stats) merge(o *stats) {
	s.read.Merge(&o.read)
	s.write.Merge(&o.write)
	s.vwrite.Merge(&o.vwrite)
	s.scan.Merge(&o.scan)
	s.attempted += o.attempted
	s.failed += o.failed
	s.reads += o.reads
	s.writes += o.writes
	s.userBytes += o.userBytes
}

// rate is the phase's throughput: ops completed per second of wall time.
func (s *stats) rate(wall time.Duration) float64 {
	return float64(s.reads+s.writes) / wall.Seconds()
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// worker is one closed-loop driver goroutine: it generates an op,
// executes it, waits for the answer, checks it, and only then goes on.
type worker struct {
	id   int
	r    *rig
	gen  *workload.Gen
	lane *simclock.Clock // the caller's clock: virtual write latency is its advance across the call
	st   stats
	req  uint64 // id of the op in flight (spans)

	// Reused buffers: the harness allocates nothing per op.
	op   workload.Op
	keys [workload.MaxBatch][]byte
	vals [workload.MaxBatch][]byte
	ext  any // the workload's per-driver state
}

// rig is one workload, assembled and pre-populated.
type rig struct {
	cfg     config
	tr      *tracer
	model   *model
	workers []*worker
	// clock is the system's parent clock (max over lanes): virtual
	// throughput is ops over its advance.
	clock *simclock.Clock
	// sys snapshots every counter of the system under test; node those
	// of the machine that holds the primary database, whose clock is
	// plat.Clock (the virtual-time shares are taken there).
	sys  func() metrics.Snapshot
	node func() metrics.Snapshot
	// plat is the machine that gets power-cut; d its open database.
	plat   *platform.Platform
	dbName string
	dbOpts db.Options
	d      *db.DB

	exec func(w *worker, op *workload.Op)
	// tailKind is the kind of single-key overwrite exec understands.
	tailKind workload.Kind
	// settle, if set, waits for background work the oracle depends on
	// (replicas catching up) and checks state only it can reach.
	settle func(when string)
	// stop tears down everything around d (servers, clients, replicas).
	stop func()
	// lag reports frames acknowledged by the primary but not yet applied
	// on the slowest replica.
	lag func() int
}

// phase bounds one stretch of driving: whichever limit is set and hit
// first ends it.
type phase struct {
	ops      uint64 // per driver
	frames   int    // frames in the primary's log since its last checkpoint
	deadline time.Time
	workers  int // 0 = all
}

// drive runs one phase on the rig's drivers and returns what they
// measured, with the host wall time and the parent clock's advance.
func (r *rig) drive(p phase) (st stats, wall time.Duration, virt time.Duration) {
	ws := r.workers
	if p.workers > 0 {
		ws = ws[:p.workers]
	}
	v0, t0 := r.clock.Now(), time.Now()
	for _, w := range ws {
		w.st = stats{}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for n := uint64(0); (p.ops == 0 || n < p.ops) && (p.frames == 0 || r.d.Journal().FramesSinceCheckpoint() < p.frames); n++ {
				if !p.deadline.IsZero() && n&15 == 0 && time.Now().After(p.deadline) {
					break
				}
				if p.frames > 0 {
					w.tailOp(n)
				} else {
					w.gen.Next(&w.op)
				}
				w.req++
				w.st.attempted++
				if r.tr.enabled() {
					r.tr.req.Store(w.req)
					s := time.Now()
					r.exec(w, &w.op)
					r.tr.record(spanCall, w.req, s, time.Now(), 0, 0)
				} else {
					r.exec(w, &w.op)
				}
			}
		}(w)
	}
	wg.Wait()
	wall, virt = time.Since(t0), r.clock.Now()-v0
	for _, w := range ws {
		st.merge(&w.st)
	}
	return st, wall, virt
}

// readDone and writeDone record one op's outcome.
func (w *worker) readDone(t0, t1 time.Time, err error) bool {
	if err != nil {
		w.st.failed++
		return false
	}
	w.st.reads++
	w.st.read.Observe(int64(t1.Sub(t0)))
	return true
}

func (w *worker) writeDone(t0, t1 time.Time, v0, v1 time.Duration, userBytes int, err error) bool {
	if err != nil {
		w.st.failed++
		return false
	}
	w.st.writes++
	w.st.userBytes += uint64(userBytes)
	w.st.write.Observe(int64(t1.Sub(t0)))
	w.st.vwrite.Observe(int64(v1 - v0))
	return true
}

var errMissing = errors.New("bench: key the model holds is missing")

// populate writes every pre-populated key at version 0 straight into d
// in large transactions. A key's size comes from the workload's size
// table by its index, not by the seed: every seed starts from the same
// database, so the recovery tail, which rewrites populated keys at
// their own sizes, logs the same bytes whatever the seed.
func (r *rig) populate(sizes []workload.SizeShare) error {
	if err := r.d.CreateTable(table); err != nil {
		return err
	}
	total := 0
	for _, s := range sizes {
		total += s.Weight
	}
	sizeOf := func(k int) int {
		pick := int(uint32(k) * 2654435761 >> 16 % uint32(total))
		for _, s := range sizes {
			if pick -= s.Weight; pick < 0 {
				return s.Bytes
			}
		}
		panic("unreachable: pick < total")
	}
	key := make([]byte, 0, workload.KeyLen)
	val := make([]byte, 4096)
	for k := 0; k < len(r.model.ver); {
		tx, err := r.d.Begin()
		if err != nil {
			return err
		}
		for end := k + 64; k < end && k < len(r.model.ver); k++ {
			key = workload.AppendKey(key[:0], uint32(k))
			v := val[:sizeOf(k)]
			workload.FillValue(v, uint32(k), 0)
			if err := tx.Insert(table, key, v); err != nil {
				tx.Rollback()
				return err
			}
			r.model.size[k] = uint32(len(v))
		}
		if err := tx.Commit(); err != nil && !errors.Is(err, db.ErrCheckpointDeferred) {
			return err
		}
	}
	return r.d.Checkpoint()
}

// newWorkers builds n drivers over spec, each with its own seed and
// its own range of fresh keys.
func (r *rig) newWorkers(n int, spec workload.Spec, lanes []*simclock.Clock) error {
	for i := 0; i < n; i++ {
		s := spec
		s.FreshBase = uint32(spec.Keys) + uint32(i)<<28
		g, err := workload.New(s, r.cfg.seed+int64(i)*7919)
		if err != nil {
			return err
		}
		w := &worker{id: i, r: r, gen: g, lane: lanes[i], req: uint64(i) << 40}
		for j := range w.keys {
			w.keys[j] = make([]byte, 0, workload.KeyLen)
			w.vals[j] = make([]byte, 4096)
		}
		r.model.fresh[i].base = s.FreshBase
		r.workers = append(r.workers, w)
	}
	return nil
}

type builder func(cfg config, tr *tracer) (*rig, error)

var builders = map[string]struct {
	build builder
	// warm is the warm-up's op count: a tenth of what the workload
	// completes in ten seconds on the reference sandbox.
	warm uint64
}{
	"embed-write":       {buildEmbedWrite, 24000},
	"embed-session-mix": {buildSessionMix, 24000},
	"serve-tcp":         {buildServeTCP, 40000},
	"serve-repl-sim":    {buildServeRepl, 4000},
}

// result is one repetition's outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	notes     []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one repetition of one workload.
func run(cfg config) (*result, error) {
	b, ok := builders[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	warm := uint64(cfg.scaled(int(b.warm)))

	t0 := time.Now()
	r, err := b.build(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.drive(phase{ops: warm / uint64(len(r.workers))})
	setupS := time.Since(t0).Seconds()

	// The measured window. A traced repetition spends its first part
	// untraced, for the overhead figure (and, with two drivers, for the
	// one-driver pass of db.worker_scaling before that).
	window := time.Duration(cfg.seconds * float64(time.Second))
	limit := func(share float64) phase {
		if cfg.ops > 0 {
			return phase{ops: uint64(float64(cfg.ops)*share) / uint64(len(r.workers))}
		}
		return phase{deadline: time.Now().Add(time.Duration(float64(window) * share))}
	}
	rate := func(st stats, wall, _ time.Duration) float64 { return st.rate(wall) }
	var soloRate, untracedRate float64
	mainShare := 1.0
	if cfg.trace {
		if len(r.workers) > 1 {
			p := limit(0.25)
			p.workers = 1
			soloRate = rate(r.drive(p))
			mainShare -= 0.25
		}
		untracedRate = rate(r.drive(limit(0.25)))
		mainShare -= 0.25
		tr.on.Store(true)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sys0, node0, nv0 := r.sys(), r.node(), r.plat.Clock.Now()
	st, wall, virt := r.drive(limit(mainShare))
	nodeVirt := r.plat.Clock.Now() - nv0
	sys, node := r.sys().Sub(sys0), r.node().Sub(node0)
	runtime.ReadMemStats(&m1)
	if tr != nil {
		tr.on.Store(false)
	}
	lag := 0
	if r.lag != nil {
		lag = r.lag()
	}

	// The oracle, before and after a power cut.
	get := func(key []byte) ([]byte, bool, error) { return r.d.Get(table, key) }
	if r.settle != nil {
		r.settle("after the window")
	}
	r.model.verifyAll("after the window", get)
	pageVersionNs := r.samplePageVersion()
	rec, err := r.powerCut()
	if err != nil {
		return nil, err
	}
	r.model.verifyAll("after the power cut", get)
	if err := r.d.Check(); err != nil {
		r.model.violate("after the power cut: %v", err)
	}
	if err := r.d.Close(); err != nil {
		r.model.violate("closing the recovered database: %v", err)
	}

	ops := float64(st.reads + st.writes)
	res := &result{Attempted: st.attempted, Failed: st.failed}
	us := func(ns float64) float64 { return ns / 1e3 }
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":                 setupS,
			"ops_per_s":               st.rate(wall),
			"read_p50_us":             us(st.read.Quantile(0.5)),
			"write_p50_us":            us(st.write.Quantile(0.5)),
			"vops_per_s":              ops / virt.Seconds(),
			"vwrite_p50_us":           us(st.vwrite.Quantile(0.5)),
			"vwrite_p99_us":           us(st.vwrite.Quantile(0.99)),
			"allocs_per_op":           float64(m1.Mallocs-m0.Mallocs) / ops,
			"log_bytes_per_user_byte": float64(sys.Count(metrics.NVRAMBytes)) / float64(st.userBytes),
			"vrecover_ms":             float64(rec.virt) / 1e6,
		}
		if res.Metrics, err = emit(contract.EndToEnd, vals); err != nil {
			return nil, err
		}
		res.notes = append(res.notes,
			fmt.Sprintf("samples: read %d, write %d, vwrite %d; window %.2fs host, %.3fs virtual",
				st.read.Count(), st.write.Count(), st.vwrite.Count(), wall.Seconds(), virt.Seconds()))
	} else {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
		in := layerInputs{
			st: st, wall: wall, nodeVirt: nodeVirt, sys: sys, node: node, tr: tr,
			m0: &m0, m1: &m1, rec: rec, lag: lag, lanes: len(r.workers), pageVersionNs: pageVersionNs,
			soloRate: soloRate, untracedRate: untracedRate, rssKB: ru.Maxrss,
		}
		if res.Metrics, err = emit(contract.PerLayer, in.table()); err != nil {
			return nil, err
		}
		res.notes = append(res.notes,
			fmt.Sprintf("samples: read %d, write %d, scan %d, spans %d; traced window %.2fs host",
				st.read.Count(), st.write.Count(), st.scan.Count(), tr.next.Load(), wall.Seconds()))
		if err := tr.dump(filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json"), res.Metrics); err != nil {
			return nil, err
		}
	}
	res.Correct = len(r.model.violations) == 0
	// fail_share: a failed op is in no latency histogram, so a change
	// that turns slow ops into failed ones must not pass as a faster one.
	if share := float64(st.failed) / float64(st.attempted); share > failBound {
		res.Correct = false
		res.notes = append(res.notes, fmt.Sprintf("fail_share %.4f is above %.3f", share, failBound))
	}
	for _, v := range r.model.violations {
		res.notes = append(res.notes, "ORACLE: "+v)
	}
	for name, mv := range res.Metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			res.Correct = false
			res.notes = append(res.notes, "metric "+name+" is not finite")
		}
	}
	return res, nil
}

// recovery is what the power cut measured.
type recovery struct {
	virt, host time.Duration
	frames     int
}

// tailFrames is how full the log is when the power is cut: most of
// the way to db.DefaultCheckpointLimit, short enough that no automatic
// checkpoint empties it first. tailPoints is how many evenly spaced
// populated keys the tail's writes walk over, one key per write and
// more keys than the tail can need, so that every repetition, whatever
// its seed, recovers the same amount of log spread over the same
// number of pages: vrecover_ms then moves with the cost of recovery and
// with nothing else.
const (
	tailFrames = 800
	tailPoints = 1021
)

// tailOp makes w.op the driver's n-th write of the recovery tail.
func (w *worker) tailOp(n uint64) {
	m := w.r.model
	j := (n*uint64(len(w.r.workers)) + uint64(w.id)) % tailPoints
	k := uint32(j * uint64(len(m.ver)) / tailPoints)
	w.op = workload.Op{Kind: w.r.tailKind, N: 1}
	w.op.Keys[0], w.op.Sizes[0] = k, int(m.size[k])
}

// powerCut ends the repetition the way the paper's §4.3 tests do:
// checkpoint, write a tail into the log, cut the power with every
// unpersisted cache line lost, reboot, reopen. The caller then reads
// every acknowledged write back.
func (r *rig) powerCut() (recovery, error) {
	if err := r.d.Checkpoint(); err != nil {
		return recovery{}, fmt.Errorf("checkpoint before the power cut: %w", err)
	}
	if st, _, _ := r.drive(phase{frames: r.cfg.scaled(tailFrames)}); st.failed > 0 {
		r.model.violate("%d of the tail's operations failed", st.failed)
	}
	if r.settle != nil {
		r.settle("after the tail")
	}
	r.stop()
	r.d.Abandon()
	r.plat.PowerFail(memsim.FailDropAll, r.cfg.seed)
	v0, t0 := r.plat.Clock.Now(), time.Now()
	if err := r.plat.Reboot(); err != nil {
		return recovery{}, fmt.Errorf("reboot: %w", err)
	}
	d, err := db.Open(r.plat, r.dbName, r.dbOpts)
	if err != nil {
		return recovery{}, fmt.Errorf("reopen after the power cut: %w", err)
	}
	rec := recovery{virt: r.plat.Clock.Now() - v0, host: time.Since(t0), frames: d.Journal().FramesSinceCheckpoint()}
	r.d = d
	return rec, nil
}
