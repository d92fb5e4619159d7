// Package blockdev simulates the eMMC flash storage of the paper's
// Nexus 5 platform: a page-granularity block device with a volatile
// write buffer that only becomes durable at a cache-flush (the device
// half of fsync). Program and flush latencies are charged to the shared
// virtual clock, calibrated so the optimized SQLite WAL lands near the
// paper's 541 inserts/second anchor.
//
// The device also models media faults: transient EIO (the controller
// hiccuped; a retry succeeds), permanent EIO (a page went bad), torn
// sector writes (power failed while a sector was programming — a
// prefix of the new content landed), and short writes (the program
// silently truncated but reported success). Faults are seeded and
// rate-configurable via InjectFaults, or forced deterministically via
// the FailNext*/MarkBad test hooks.
package blockdev

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ErrIO is the sentinel every device I/O error wraps; match with
// errors.Is(err, ErrIO).
var ErrIO = errors.New("blockdev: I/O error")

// IOError is one failed device operation. Transient errors model
// controller hiccups that a bounded retry absorbs; permanent errors
// model media that has gone bad and will keep failing.
type IOError struct {
	Op        string // "read", "write", "sync"
	Page      int    // -1 when not attributable to one page
	Transient bool
}

func (e *IOError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	if e.Page < 0 {
		return fmt.Sprintf("blockdev: %s %s error", kind, e.Op)
	}
	return fmt.Sprintf("blockdev: %s %s error on page %d", kind, e.Op, e.Page)
}

func (e *IOError) Unwrap() error { return ErrIO }

// IsTransient reports whether err is a device error a retry may clear.
// A nil error, the common case, costs nothing: errors.As needs its
// target on the heap.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var ioe *IOError
	return errors.As(err, &ioe) && ioe.Transient
}

// FaultConfig parameterizes randomized fault injection. All rates are
// probabilities in [0, 1]; zero disables that fault class.
type FaultConfig struct {
	// Seed drives every fault decision.
	Seed int64
	// ReadEIORate / WriteEIORate / SyncEIORate are per-operation
	// probabilities of a transient EIO.
	ReadEIORate  float64
	WriteEIORate float64
	SyncEIORate  float64
	// TornWriteRate is the per-page probability that a sector in flight
	// at a power failure tears: a prefix of the new content lands, the
	// rest keeps the old content.
	TornWriteRate float64
	// ShortWriteRate is the per-write probability that only a prefix of
	// the page programs while the device reports success.
	ShortWriteRate float64

	// Slow faults model gray failures: the device keeps answering, but
	// slowly. SlowOpRate is the per-read/write probability of an extra
	// SlowOpDelay stall (internal garbage collection, a marginal block
	// needing program retries). SyncStallRate is the per-Sync
	// probability of a SyncStallDelay stall — the intermittent fsync
	// hang that real eMMC parts exhibit near end of life. All delays
	// are charged to the virtual clock; the operation still succeeds.
	SlowOpRate     float64
	SlowOpDelay    time.Duration
	SyncStallRate  float64
	SyncStallDelay time.Duration
}

func (c FaultConfig) enabled() bool {
	return c.ReadEIORate > 0 || c.WriteEIORate > 0 || c.SyncEIORate > 0 ||
		c.TornWriteRate > 0 || c.ShortWriteRate > 0 ||
		(c.SlowOpRate > 0 && c.SlowOpDelay > 0) ||
		(c.SyncStallRate > 0 && c.SyncStallDelay > 0)
}

// Config parameterizes a Device. Zero fields take defaults.
type Config struct {
	// PageSize is the device write granule (4 KB, matching both the
	// SQLite page and the EXT4 block size — §3.2).
	PageSize int
	// Pages is the device capacity in pages.
	Pages int
	// ProgramLatency is charged per page write.
	ProgramLatency time.Duration
}

// Defaults calibrated against the paper's eMMC anchors (§7 of DESIGN.md).
const (
	DefaultPageSize       = 4096
	DefaultPages          = 1 << 18 // 1 GiB
	DefaultProgramLatency = 180 * time.Microsecond
	// DefaultReadLatency is charged per page read.
	DefaultReadLatency = 60 * time.Microsecond
	// DefaultFlushLatency is the device cache-flush cost charged per
	// Sync, on top of any outstanding page programs.
	DefaultFlushLatency = 470 * time.Microsecond
)

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = DefaultPageSize
	}
	if c.Pages <= 0 {
		c.Pages = DefaultPages
	}
	if c.ProgramLatency <= 0 {
		c.ProgramLatency = DefaultProgramLatency
	}
	return c
}

// Device is one simulated flash device. Safe for concurrent use.
type Device struct {
	mu      sync.Mutex
	cfg     Config
	clock   *simclock.Clock
	m       *metrics.Counters
	rec     *trace.Recorder // nil until StartTrace
	durable map[int][]byte  // page -> content surviving power failure
	pending map[int][]byte  // written, not yet flushed
	frozen  map[int][]byte  // durable image captured by Freeze, restored by PowerFail
	// frozenPending snapshots the in-flight writes at the Freeze
	// instant: the candidates for torn-sector application at PowerFail.
	frozenPending map[int][]byte

	// free holds page buffers no map references any more: the durable
	// buffer a Sync replaced, the pending buffer an overwrite replaced.
	// WritePage takes from it before allocating. See recycleLocked.
	// synced is how many pages the last Sync made durable, which bounds
	// it.
	free   [][]byte
	synced int
	// zero is the content of every page programmed with no data (the file
	// system's journal blocks): one read-only buffer all such pages share,
	// never recycled, so a journal commit takes nothing from free.
	zero []byte

	// The counter cells of the read, write and sync paths, bound in New;
	// the fault counters go by name.
	cRead, cWrite, cFsync, tBlockIO *metrics.Cell

	faults  *FaultConfig
	rng     *rand.Rand
	badPage map[int]bool
	// One-shot transient failure injectors for deterministic tests.
	failNextRead, failNextWrite, failNextSync int
}

// New creates a device. It traces nothing until StartTrace.
func New(cfg Config, clock *simclock.Clock, m *metrics.Counters) *Device {
	cfg = cfg.withDefaults()
	return &Device{
		cfg:     cfg,
		clock:   clock,
		m:       m,
		durable: make(map[int][]byte),
		pending: make(map[int][]byte),
		badPage: make(map[int]bool),

		cRead:    m.Cell(metrics.BlockRead),
		cWrite:   m.Cell(metrics.BlockWrite),
		cFsync:   m.Cell(metrics.Fsync),
		tBlockIO: m.Cell(metrics.TimeBlockIO),
	}
}

// maxFreeBuffers is the least the free list may hold (1 MiB of host
// memory at the default page size). Past it the list takes as many
// buffers as the last Sync made durable, so a checkpoint round's
// programs reuse what the previous round's Sync replaced however many
// pages a round writes back. A bulk round's surplus is not trimmed: the
// rounds after it draw it down, as their Syncs add no more than they
// made durable.
const maxFreeBuffers = 256

// recycleLocked hands a buffer that durable or pending no longer maps to
// the free list — unless a Freeze image is held. Freeze copies the maps
// shallowly, so while frozen is set a replaced buffer may still be the
// frozen image's content and must stay as it is; recycling stops
// entirely until PowerFail or Unfreeze drops the image. That keeps
// "buffers are replaced, never mutated" true for every buffer a map can
// still reach. Caller holds d.mu.
func (d *Device) recycleLocked(buf []byte) {
	if d.frozen == nil && buf != nil && !d.isZero(buf) && len(d.free) < max(maxFreeBuffers, d.synced) {
		d.free = append(d.free, buf)
	}
}

// isZero reports whether buf is the shared zero page.
func (d *Device) isZero(buf []byte) bool {
	return len(buf) > 0 && len(d.zero) > 0 && &buf[0] == &d.zero[0]
}

// pageBufferLocked returns a page-sized buffer whose content is
// unspecified. Caller holds d.mu.
func (d *Device) pageBufferLocked() []byte {
	if n := len(d.free); n > 0 {
		buf := d.free[n-1]
		d.free = d.free[:n-1]
		return buf
	}
	return make([]byte, d.cfg.PageSize)
}

// PageSize returns the device write granule in bytes.
func (d *Device) PageSize() int { return d.cfg.PageSize }

// Pages returns the device capacity in pages.
func (d *Device) Pages() int { return d.cfg.Pages }

// InjectFaults installs (or removes, with a zero config) randomized
// fault injection.
func (d *Device) InjectFaults(cfg FaultConfig) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !cfg.enabled() {
		d.faults = nil
		d.rng = nil
		return
	}
	c := cfg
	d.faults = &c
	d.rng = rand.New(rand.NewSource(cfg.Seed))
}

// Stall charges an externally injected delay to the device clock and
// the slow-fault counters. Layers above the device (ext4's fsync-stall
// model) route their own gray-failure delays here so every injected
// stall lands in one pair of counters.
func (d *Device) Stall(delay time.Duration) {
	if delay <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock.Advance(delay)
	d.m.AddTime(metrics.TimeBlockIO, delay)
	d.m.Inc(metrics.SlowFaultStalls, 1)
	d.m.Inc(metrics.SlowFaultStallNs, delay.Nanoseconds())
}

// slowStallLocked samples one slow-fault decision and, when it bites,
// charges the stall to the virtual clock. Caller holds d.mu.
func (d *Device) slowStallLocked(rate float64, delay time.Duration) {
	if rate <= 0 || delay <= 0 || d.rng.Float64() >= rate {
		return
	}
	d.clock.Advance(delay)
	d.m.AddTime(metrics.TimeBlockIO, delay)
	d.m.Inc(metrics.SlowFaultStalls, 1)
	d.m.Inc(metrics.SlowFaultStallNs, delay.Nanoseconds())
}

// MarkBad retires a page: every read or write of it fails permanently.
// A pending (unsynced) write to the page is discarded —
// it will never program.
func (d *Device) MarkBad(page int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkPage(page)
	d.badPage[page] = true
	delete(d.pending, page)
}

// FailNextReads makes the next n reads fail with a transient EIO.
func (d *Device) FailNextReads(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failNextRead = n
}

// FailNextWrites makes the next n writes fail with a transient EIO.
func (d *Device) FailNextWrites(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failNextWrite = n
}

// FailNextSyncs makes the next n syncs fail with a transient EIO.
func (d *Device) FailNextSyncs(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failNextSync = n
}

func (d *Device) checkPage(page int) {
	if page < 0 || page >= d.cfg.Pages {
		panic(fmt.Sprintf("blockdev: page %d out of range [0,%d)", page, d.cfg.Pages))
	}
}

// ioError builds, counts, and returns one failed operation. Caller
// holds d.mu.
func (d *Device) ioError(op string, page int, transient bool) error {
	d.m.Inc(metrics.BlockIOErrors, 1)
	return &IOError{Op: op, Page: page, Transient: transient}
}

// WritePage programs one page. tag labels the I/O stream for tracing
// ("db", "db-wal", "journal"). The write is buffered in the device cache
// until Sync. A failed write buffers nothing; a short write silently
// buffers only a prefix of p over the page's previous content.
func (d *Device) WritePage(page int, p []byte, tag string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkPage(page)
	if len(p) > d.cfg.PageSize {
		panic(fmt.Sprintf("blockdev: write of %d bytes exceeds page size %d", len(p), d.cfg.PageSize))
	}
	d.clock.Advance(d.cfg.ProgramLatency)
	d.tBlockIO.Add(int64(d.cfg.ProgramLatency))
	if f := d.faults; f != nil {
		d.slowStallLocked(f.SlowOpRate, f.SlowOpDelay)
	}
	if d.badPage[page] {
		return d.ioError("write", page, false)
	}
	if d.failNextWrite > 0 {
		d.failNextWrite--
		return d.ioError("write", page, true)
	}
	if f := d.faults; f != nil && f.WriteEIORate > 0 && d.rng.Float64() < f.WriteEIORate {
		return d.ioError("write", page, true)
	}
	var buf []byte
	replaced := d.pending[page]
	if f := d.faults; f != nil && f.ShortWriteRate > 0 && d.rng.Float64() < f.ShortWriteRate {
		// Short write: the old content shows through past the cut.
		buf = d.pageBufferLocked()
		old := replaced
		if old == nil {
			old = d.durable[page]
		}
		clear(buf[copy(buf, old):])
		cut := 1 + d.rng.Intn(d.cfg.PageSize-1)
		if cut > len(p) {
			cut = len(p)
		}
		copy(buf[:cut], p[:cut])
		d.m.Inc(metrics.BlockShortWrites, 1)
	} else if len(p) == 0 {
		if d.zero == nil {
			d.zero = make([]byte, d.cfg.PageSize)
		}
		buf = d.zero
	} else {
		buf = d.pageBufferLocked()
		clear(buf[copy(buf, p):])
	}
	d.pending[page] = buf
	d.recycleLocked(replaced)
	d.cWrite.Add(1)
	d.rec.Record(trace.Event{T: d.clock.Now(), Block: page, Tag: tag, Bytes: d.cfg.PageSize})
	return nil
}

// StartTrace attaches a fresh block-trace recorder and returns it: every
// page written from now on is recorded (Figure 8). A recorder attached
// earlier is dropped.
func (d *Device) StartTrace() *trace.Recorder {
	rec := trace.New()
	d.mu.Lock()
	d.rec = rec
	d.mu.Unlock()
	return rec
}

// ReadPage loads one page into p (zero-filled if never written).
func (d *Device) ReadPage(page int, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkPage(page)
	d.clock.Advance(DefaultReadLatency)
	d.tBlockIO.Add(int64(DefaultReadLatency))
	if f := d.faults; f != nil {
		d.slowStallLocked(f.SlowOpRate, f.SlowOpDelay)
	}
	if d.badPage[page] {
		return d.ioError("read", page, false)
	}
	if d.failNextRead > 0 {
		d.failNextRead--
		return d.ioError("read", page, true)
	}
	if f := d.faults; f != nil && f.ReadEIORate > 0 && d.rng.Float64() < f.ReadEIORate {
		return d.ioError("read", page, true)
	}
	src, ok := d.pending[page]
	if !ok {
		src = d.durable[page]
	}
	for i := range p {
		p[i] = 0
	}
	if src != nil {
		copy(p, src)
	}
	d.cRead.Add(1)
	return nil
}

// Sync flushes the device write cache, making all buffered pages
// durable. This is the device half of fsync. On a transient sync error
// the buffered pages stay pending; a retry flushes them.
func (d *Device) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock.Advance(DefaultFlushLatency)
	d.tBlockIO.Add(int64(DefaultFlushLatency))
	if f := d.faults; f != nil {
		d.slowStallLocked(f.SyncStallRate, f.SyncStallDelay)
	}
	if d.failNextSync > 0 {
		d.failNextSync--
		return d.ioError("sync", -1, true)
	}
	if f := d.faults; f != nil && f.SyncEIORate > 0 && d.rng.Float64() < f.SyncEIORate {
		return d.ioError("sync", -1, true)
	}
	d.synced = len(d.pending)
	for page, buf := range d.pending {
		if d.badPage[page] {
			// The page went bad while its write sat in the cache: the
			// program fails and the data is lost.
			delete(d.pending, page)
			continue
		}
		d.recycleLocked(d.durable[page])
		d.durable[page] = buf
		delete(d.pending, page)
	}
	d.cFsync.Add(1)
	return nil
}

// Freeze captures the current durable image as what the next PowerFail
// restores, regardless of Syncs that complete in between. It is the
// block-device half of a coordinated crash instant: a crash-injection
// harness freezes every device at the same moment, lets the doomed
// execution run on, and then fails power. A shallow copy of the durable
// map suffices because page buffers are replaced, never mutated: a
// replaced buffer is reused (recycleLocked) only while no frozen image
// exists, and one recycled earlier is in neither map to be copied. The
// in-flight (pending) writes at the freeze instant are also captured:
// they are the sectors that may tear when power actually fails.
func (d *Device) Freeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = make(map[int][]byte, len(d.durable))
	for page, buf := range d.durable {
		d.frozen[page] = buf
	}
	d.frozenPending = make(map[int][]byte, len(d.pending))
	for page, buf := range d.pending {
		d.frozenPending[page] = buf
	}
}

// Unfreeze discards a captured image so the next PowerFail resolves the
// then-current state normally.
func (d *Device) Unfreeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = nil
	d.frozenPending = nil
}

// PowerFail drops the volatile write buffer: unsynced writes are lost.
// If Freeze captured an image, the durable state rolls back to it. With
// fault injection enabled, each sector in flight at the crash instant
// may tear: a seeded prefix of the new content lands over the old.
func (d *Device) PowerFail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	inflight := d.pending
	if d.frozen != nil {
		d.durable = d.frozen
		d.frozen = nil
		inflight = d.frozenPending
		d.frozenPending = nil
	}
	if f := d.faults; f != nil && f.TornWriteRate > 0 {
		for page, buf := range inflight {
			if d.rng.Float64() >= f.TornWriteRate {
				continue
			}
			torn := make([]byte, d.cfg.PageSize)
			if old, ok := d.durable[page]; ok {
				copy(torn, old)
			}
			cut := 1 + d.rng.Intn(d.cfg.PageSize-1)
			copy(torn[:cut], buf[:cut])
			d.durable[page] = torn
			d.m.Inc(metrics.BlockTornWrites, 1)
		}
	}
	d.pending = make(map[int][]byte)
	d.frozenPending = nil
}

// PendingPages reports how many pages sit in the volatile write buffer.
func (d *Device) PendingPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}
