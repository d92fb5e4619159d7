// Package platform assembles the simulated hardware the paper evaluates
// on: the Tuna NVRAM-emulation board (ARM Cortex-A9, 32-byte cache
// lines, adjustable 400–2000 ns NVRAM write latency) and the Nexus 5
// smartphone (Snapdragon 800, 64-byte cache lines, eMMC flash, NVRAM
// emulated in a reserved DRAM range with nop-injected latency).
//
// A Platform wires one virtual clock and one metrics sink through the
// NVRAM device, the Heapo heap manager, the flash block device and the
// EXT4 file system, so experiments read consistent end-to-end virtual
// time. PowerFail/Reboot crash and recover the whole machine.
package platform

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext4"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/simclock"
)

// Platform is one assembled machine.
type Platform struct {
	Clock   *simclock.Clock
	Metrics *metrics.Counters
	NVRAM   *nvram.Device
	Heap    *heapo.Manager
	Flash   *blockdev.Device
	FS      *ext4.FS
}

// Config selects the hardware parameters.
type Config struct {
	NVRAM nvram.Config
	Flash blockdev.Config
}

// New assembles a platform from explicit hardware parameters, on a
// clock and a metrics sink of its own.
func New(cfg Config) (*Platform, error) {
	return Assemble(cfg, simclock.New(), &metrics.Counters{})
}

// Assemble builds a platform on the caller's clock (a lane of a shared
// one, say) and metrics sink: the NVRAM device, a heap freshly formatted
// over it, the flash device and the file system over that.
func Assemble(cfg Config, clock *simclock.Clock, m *metrics.Counters) (*Platform, error) {
	p := &Platform{Clock: clock, Metrics: m}
	p.NVRAM = nvram.NewDevice(cfg.NVRAM, clock, m)
	h, err := heapo.Format(p.NVRAM)
	if err != nil {
		return nil, err
	}
	p.Heap = h
	p.Flash = blockdev.New(cfg.Flash, clock, m)
	p.FS = ext4.New(p.Flash)
	return p, nil
}

// NewTuna builds the Tuna NVRAM-emulation board of §5: 32-byte cache
// lines and the default 500 ns NVRAM write latency used by the ordering
// experiments (adjustable via SetNVRAMLatency for Figure 7).
func NewTuna() (*Platform, error) {
	return New(Config{
		NVRAM: nvram.Config{
			Size:              64 << 20,
			CacheLineSize:     32,
			NVRAMWriteLatency: 500 * time.Nanosecond,
		},
	})
}

// NewNexus5 builds the Nexus 5 of §5.4: 64-byte cache lines, NVRAM
// emulated at a configurable latency, and eMMC flash behind EXT4. The
// paper emulates NVRAM latency there by inserting nop delays after each
// clflush — a mostly serial path — so the simulated controller gets
// only 2 banks (the Tuna board's FPGA DDR3 controller gets 4). Figure 8
// traces its flash (Flash.StartTrace) for the run it plots.
func NewNexus5() (*Platform, error) {
	return New(Config{
		NVRAM: nvram.Config{
			Size:              64 << 20,
			CacheLineSize:     64,
			NVRAMWriteLatency: 2 * time.Microsecond,
			NVRAMBanks:        2,
		},
	})
}

// SetNVRAMLatency adjusts the emulated NVRAM write latency, the
// independent variable of Figures 7 and 9.
func (p *Platform) SetNVRAMLatency(w time.Duration) { p.NVRAM.SetWriteLatency(w) }

// PowerFail crashes the whole machine under the given NVRAM line-
// survival policy: the NVRAM cache hierarchy and the flash write buffer
// lose their volatile contents.
func (p *Platform) PowerFail(policy memsim.FailPolicy, seed int64) {
	p.NVRAM.PowerFail(policy, seed)
	p.FS.PowerFail()
}

// ArmCrash installs a one-shot machine-wide crash trigger that fires
// after afterOps further NVRAM persistence operations (stores, flushes,
// barriers). At the trigger instant the durable state of every device —
// NVRAM under the given fail policy, plus the file system and flash
// device at their last journal commit / cache flush — is frozen as the
// image the next PowerFail restores. Execution continues afterwards; the
// goroutines still running are ghosts of a machine whose power already
// failed, and whatever they persist is discarded. This is how the
// crash-consistency fuzzer injects failures mid-operation without
// having to stop every goroutine at the crash point.
func (p *Platform) ArmCrash(afterOps int64, policy memsim.FailPolicy, seed int64) {
	fs := p.FS
	// The callback runs with the NVRAM domain mutex held; ext4 and
	// blockdev never call back into memsim, so the memsim→fs→dev lock
	// order is acyclic.
	p.NVRAM.Domain().ArmCrash(afterOps, policy, seed, fs.Freeze)
}

// CrashTriggered reports whether an armed crash trigger has fired. An
// operation acknowledged while this still reads false completed before
// the crash instant and must survive the PowerFail.
func (p *Platform) CrashTriggered() bool {
	return p.NVRAM.Domain().CrashTriggered()
}

// DisarmCrash removes an armed trigger and any frozen device images.
func (p *Platform) DisarmCrash() {
	p.NVRAM.Domain().DisarmCrash()
	p.FS.Unfreeze()
}

// OpCount returns the NVRAM persistence-operation counter — the
// coordinate space ArmCrash targets, used to size crash windows.
func (p *Platform) OpCount() int64 {
	return p.NVRAM.Domain().OpCount()
}

// Reboot recovers the machine after PowerFail: the NVRAM domain comes
// back serving persisted content, the heap manager reattaches and
// reclaims pending blocks. The caller re-opens databases afterwards.
func (p *Platform) Reboot() error {
	p.NVRAM.Recover()
	h, err := heapo.Attach(p.NVRAM)
	if err != nil {
		return err
	}
	h.ReclaimPending()
	p.Heap = h
	return nil
}
