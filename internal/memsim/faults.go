// Media-fault model for the NVRAM domain. Real NVRAM exhibits failure
// modes a clean power-cut model never exercises: retention bit rot,
// cells stuck at stale content, and uncorrectable read errors (the ECC
// gave up). The fault layer injects all three with seeded, configurable
// rates so the salvage-recovery path can be driven deterministically:
//
//   - Bit flips are applied to the durable image at each PowerFail
//     (rot is observed at the reboot that follows an outage), at most
//     one flipped bit per affected cache line.
//   - Stuck lines are chosen deterministically by address: once the
//     fault bites, the line's durable content never changes again,
//     no matter how many persist barriers drain over it.
//   - Read errors surface only through ReadChecked; the unchecked Read
//     path models plain loads, which on real hardware would machine-
//     check — recovery and scrubbing code must use the checked path.
//
// Faults can be confined to address ranges so a harness can target the
// log region while leaving allocator metadata intact ("WAL-only
// damage").
package memsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
)

// ErrMediaRead is the sentinel wrapped by uncorrectable NVRAM read
// errors returned from ReadChecked.
var ErrMediaRead = errors.New("memsim: uncorrectable media read error")

// AddrRange is a half-open [Start, End) address interval.
type AddrRange struct {
	Start, End uint64
}

// FaultConfig parameterizes injected media faults. All rates are
// per-line (bit flips, stuck lines) or per-call (read errors)
// probabilities in [0, 1]; zero disables that fault class.
type FaultConfig struct {
	// Seed drives every fault decision; the same seed and operation
	// sequence reproduces the same damage.
	Seed int64
	// BitFlipRate is the per-line probability that a line of the durable
	// image takes a single-bit flip at each PowerFail.
	BitFlipRate float64
	// StuckLineRate is the per-line probability that a line is stuck:
	// its durable content freezes at the value it held when first
	// persisted after injection.
	StuckLineRate float64
	// ReadErrorRate is the per-call probability that ReadChecked reports
	// an uncorrectable media error instead of returning data.
	ReadErrorRate float64
	// Ranges confines faults to the given address intervals. Empty means
	// the whole domain.
	Ranges []AddrRange

	// Slow faults model gray failures: the medium keeps working but
	// gets slow. SlowOpRate is the per-store probability of an extra
	// virtual-clock stall of SlowOpDelay (an internal remap, a wear-
	// leveling pause). SlowRanges marks degraded regions — stores
	// touching them pay SlowFactor× the normal per-line store cost,
	// modelling a bank whose cells respond at retirement latency.
	// All delays are charged to the virtual clock; nothing corrupts.
	SlowOpRate  float64
	SlowOpDelay time.Duration
	SlowRanges  []AddrRange
	SlowFactor  int
}

func (c FaultConfig) enabled() bool {
	return c.BitFlipRate > 0 || c.StuckLineRate > 0 || c.ReadErrorRate > 0 ||
		c.slowEnabled()
}

func (c FaultConfig) slowEnabled() bool {
	return (c.SlowOpRate > 0 && c.SlowOpDelay > 0) ||
		(c.SlowFactor > 1 && len(c.SlowRanges) > 0)
}

type faultState struct {
	cfg     FaultConfig
	readRng *rand.Rand
	slowRng *rand.Rand
	stuck   map[uint64][]byte // line addr -> frozen durable content
}

// splitmix64 is the standard 64-bit mix used for address-keyed fault
// decisions; deterministic and stateless.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (f *faultState) inRange(addr uint64) bool {
	if len(f.cfg.Ranges) == 0 {
		return true
	}
	for _, r := range f.cfg.Ranges {
		if addr >= r.Start && addr < r.End {
			return true
		}
	}
	return false
}

// isStuck decides, deterministically by address, whether a line carries
// the stuck-at fault.
func (f *faultState) isStuck(la uint64) bool {
	if f.cfg.StuckLineRate <= 0 || !f.inRange(la) {
		return false
	}
	h := splitmix64(la ^ uint64(f.cfg.Seed)*0x9e3779b97f4a7c15)
	return float64(h>>11)/(1<<53) < f.cfg.StuckLineRate
}

// InjectFaults installs (or, with a zero config, removes) the media-
// fault model. Injection may happen at any time; stuck lines freeze at
// the durable content they hold when first re-persisted afterwards.
func (d *Domain) InjectFaults(cfg FaultConfig) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !cfg.enabled() {
		d.faults = nil
		return
	}
	d.faults = &faultState{
		cfg:     cfg,
		readRng: rand.New(rand.NewSource(cfg.Seed)),
		slowRng: rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed) ^ 0x510Afa17)))),
		stuck:   make(map[uint64][]byte),
	}
}

// applySlowFaultLocked charges gray-failure latency for a store covering
// lines [first, last] (nLines of them): the degraded-region multiplier
// plus a seeded per-op stall. Purely a virtual-clock cost — the store
// itself is untouched, which is what makes slow faults gray rather than
// fail-stop. Caller holds d.mu and publishes d.owed.
func (d *Domain) applySlowFaultLocked(first, last uint64, nLines int) {
	f := d.faults
	if f == nil || !f.cfg.slowEnabled() {
		return
	}
	var extra time.Duration
	if f.cfg.SlowFactor > 1 {
		for _, r := range f.cfg.SlowRanges {
			if first < r.End && last >= r.Start {
				extra += time.Duration(nLines) * d.cfg.StoreCostPerLine *
					time.Duration(f.cfg.SlowFactor-1)
				break
			}
		}
	}
	if f.cfg.SlowOpRate > 0 && f.slowRng.Float64() < f.cfg.SlowOpRate {
		extra += f.cfg.SlowOpDelay
	}
	if extra > 0 {
		d.owed += extra
		d.m.Inc(metrics.SlowFaultStalls, 1)
		d.m.Inc(metrics.SlowFaultStallNs, extra.Nanoseconds())
	}
}

// persistLineLocked writes one line's worth of durable content into dst
// at la, honouring stuck-at faults: a stuck line keeps the content it
// held when the fault first bit. Caller holds d.mu.
func (d *Domain) persistLineLocked(dst []byte, la uint64, src []byte) {
	if f := d.faults; f != nil && f.isStuck(la) {
		frozen, ok := f.stuck[la]
		if !ok {
			frozen = make([]byte, d.cfg.CacheLineSize)
			copy(frozen, dst[la:])
			f.stuck[la] = frozen
			d.m.Inc(metrics.MediaStuckLines, 1)
		}
		copy(dst[la:], frozen)
		return
	}
	copy(dst[la:], src)
}

// applyCrashFaultsLocked damages the finalized durable image the way an
// outage-plus-retention-loss would: each line inside the fault ranges
// independently takes a single-bit flip with BitFlipRate probability.
// The flip choices derive from the fault seed and the PowerFail seed,
// so a replayed crash reproduces identical damage regardless of
// goroutine interleavings. Caller holds d.mu.
func (d *Domain) applyCrashFaultsLocked(crashSeed int64) {
	f := d.faults
	if f == nil || f.cfg.BitFlipRate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(f.cfg.Seed) ^ uint64(crashSeed)))))
	ls := uint64(d.cfg.CacheLineSize)
	ranges := f.cfg.Ranges
	if len(ranges) == 0 {
		ranges = []AddrRange{{0, uint64(d.cfg.Size)}}
	}
	for _, r := range ranges {
		end := r.End
		if end > uint64(d.cfg.Size) {
			end = uint64(d.cfg.Size)
		}
		for la := d.lineAddr(r.Start); la < end; la += ls {
			if rng.Float64() >= f.cfg.BitFlipRate {
				continue
			}
			bit := rng.Intn(d.cfg.CacheLineSize * 8)
			d.persisted[la+uint64(bit/8)] ^= 1 << (bit % 8)
			d.m.Inc(metrics.MediaBitFlips, 1)
		}
	}
}

// ReadChecked copies the current logical content at addr into p like
// Read, but models an ECC-checked load: with an installed fault model
// it may return an uncorrectable media error instead. Recovery and
// scrub paths must use this entry point so injected read faults surface
// as errors rather than silent garbage.
func (d *Domain) ReadChecked(addr uint64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, len(p))
	if f := d.faults; f != nil && f.cfg.ReadErrorRate > 0 && f.inRange(addr) {
		if f.readRng.Float64() < f.cfg.ReadErrorRate {
			d.m.Inc(metrics.MediaReadErrors, 1)
			return fmt.Errorf("%w at addr 0x%x", ErrMediaRead, addr)
		}
	}
	src := d.volatileMem
	if d.failed {
		src = d.persisted
	}
	copy(p, src[addr:])
	return nil
}

// ReadPersistedChecked is the ECC-checked counterpart of ReadPersisted:
// it reads the durable image (what a crash right now would leave), not
// the volatile view, and may return an uncorrectable media error under
// an installed fault model. Scrubbers use it to audit the media behind
// content whose volatile cache copy is still pristine — the only way a
// stuck-at line is observable before the crash that makes it matter.
func (d *Domain) ReadPersistedChecked(addr uint64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, len(p))
	if f := d.faults; f != nil && f.cfg.ReadErrorRate > 0 && f.inRange(addr) {
		if f.readRng.Float64() < f.cfg.ReadErrorRate {
			d.m.Inc(metrics.MediaReadErrors, 1)
			return fmt.Errorf("%w at addr 0x%x", ErrMediaRead, addr)
		}
	}
	copy(p, d.persisted[addr:])
	return nil
}
