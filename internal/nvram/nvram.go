// Package nvram models the byte-addressable NVRAM DIMM of the paper's
// platform (the Tuna board's latency-adjustable DRAM bank, or the Nexus
// 5's reserved DRAM range). It wraps a memsim.Domain with typed
// little-endian accessors that the persistent data structures — the
// Heapo metadata block and the NVWAL log — are built from.
//
// A Device guarantees 8-byte atomic writes, the assumption NVWAL's
// commit mark relies on (§4.1, following BPFS): even across a power
// failure an aligned 8-byte store is never torn.
package nvram

import (
	"encoding/binary"
	"time"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Device is one NVRAM DIMM: an address space with persistence controls.
// A Device may be a window onto part of a larger DIMM (see Window):
// every address it accepts is relative to the window base, so persistent
// data structures built on a windowed device are position-independent
// within the domain.
type Device struct {
	dom  *memsim.Domain
	base uint64 // window offset into the domain
	size int    // window length; 0 = whole domain
}

// Config mirrors memsim.Config; see that package for field semantics and
// defaults.
type Config = memsim.Config

// NewDevice creates an NVRAM device over a fresh persistence domain.
func NewDevice(cfg Config, clock *simclock.Clock, m *metrics.Counters) *Device {
	return &Device{dom: memsim.New(cfg, clock, m)}
}

// Window returns a device view covering size bytes of this device
// starting at base. The view translates every address it is given by
// base, so clients (heapo, NVWAL) run unmodified on a carved-out slice
// of a shared DIMM — the sharded engine gives each shard one window so
// all shards crash and survive as a single persistence domain. The
// window must lie inside the device and be cache-line aligned.
func (d *Device) Window(base uint64, size int) *Device {
	if size <= 0 || base+uint64(size) > uint64(d.Size()) {
		panic("nvram: window out of range")
	}
	if ls := uint64(d.LineSize()); base%ls != 0 {
		panic("nvram: window base not line-aligned")
	}
	return &Device{dom: d.dom, base: d.base + base, size: size}
}

// Domain exposes the underlying persistence domain for components that
// need raw flush/barrier control. Note that domain addresses are
// absolute even when the device is a window.
func (d *Device) Domain() *memsim.Domain { return d.dom }

// Size returns the device capacity in bytes.
func (d *Device) Size() int {
	if d.size > 0 {
		return d.size
	}
	return d.dom.Size()
}

// LineSize returns the cache line size governing flush granularity.
func (d *Device) LineSize() int { return d.dom.LineSize() }

// SetWriteLatency adjusts the device's write latency, the independent
// variable of Figures 7 and 9.
func (d *Device) SetWriteLatency(w time.Duration) { d.dom.SetWriteLatency(w) }

// WriteLatency returns the current write latency.
func (d *Device) WriteLatency() time.Duration { return d.dom.WriteLatency() }

// Write stores p at addr through the cache hierarchy.
func (d *Device) Write(addr uint64, p []byte) { d.dom.Write(d.base+addr, p) }

// WriteV stores the concatenation of parts contiguously at addr through
// the cache hierarchy, with the cost model of a single Write over the
// combined range — one store burst, one op. The commit path uses it to
// encode a frame header and its payload straight into reserved log
// space without an intermediate DRAM image.
func (d *Device) WriteV(addr uint64, parts ...[]byte) { d.dom.WriteV(d.base+addr, parts...) }

// Read loads len(p) bytes at addr into p.
func (d *Device) Read(addr uint64, p []byte) { d.dom.Read(d.base+addr, p) }

// ReadChecked loads len(p) bytes at addr into p through the ECC-checked
// path: with an installed fault model it may return an uncorrectable
// media error (wrapping memsim.ErrMediaRead) instead of data. Recovery
// and scrub code must use this entry point.
func (d *Device) ReadChecked(addr uint64, p []byte) error { return d.dom.ReadChecked(d.base+addr, p) }

// ReadPersistedChecked is the ECC-checked read of the durable image —
// what the media would hand back after a crash right now. Scrubbers use
// it to audit persisted content whose volatile copy is still clean.
func (d *Device) ReadPersistedChecked(addr uint64, p []byte) error {
	return d.dom.ReadPersistedChecked(d.base+addr, p)
}

// InjectFaults installs (or removes, with a zero config) the media-
// fault model on the underlying domain.
func (d *Device) InjectFaults(cfg memsim.FaultConfig) { d.dom.InjectFaults(cfg) }

// Flush issues cache-line flushes covering [start, end). It does not
// charge a kernel-mode switch; user-level callers model the
// cache_line_flush() syscall by pairing Flush with Syscall.
func (d *Device) Flush(start, end uint64) { d.dom.CacheLineFlush(d.base+start, d.base+end) }

// Syscall charges one kernel-mode switch.
func (d *Device) Syscall() { d.dom.Syscall() }

// Metrics returns the counter sink shared by everything on this device.
func (d *Device) Metrics() *metrics.Counters { return d.dom.Metrics() }

// Sync runs one synchronization phase over ranges of this device in one
// simulator call (memsim.Domain.Sync): an optional dmb, each range's
// optional kernel-mode switch and flushes, a dmb, an optional persist
// barrier.
func (d *Device) Sync(ranges []memsim.AddrRange, p memsim.SyncPhase) { d.dom.Sync(d.base, ranges, p) }

// PowerFail crashes the device under the given survival policy.
func (d *Device) PowerFail(policy memsim.FailPolicy, seed int64) { d.dom.PowerFail(policy, seed) }

// Recover reboots the device after a PowerFail.
func (d *Device) Recover() { d.dom.Recover() }

// PutUint64 stores v little-endian at addr. Aligned 8-byte stores are
// atomic with respect to power failure.
func (d *Device) PutUint64(addr uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.dom.Write(d.base+addr, buf[:])
}

// Uint64 loads a little-endian uint64 from addr.
func (d *Device) Uint64(addr uint64) uint64 {
	var buf [8]byte
	d.dom.Read(d.base+addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// PutUint32 stores v little-endian at addr.
func (d *Device) PutUint32(addr uint64, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	d.dom.Write(d.base+addr, buf[:])
}

// Uint32 loads a little-endian uint32 from addr.
func (d *Device) Uint32(addr uint64) uint32 {
	var buf [4]byte
	d.dom.Read(d.base+addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}
