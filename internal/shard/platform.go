// Package shard scales the single-writer NVWAL engine out sideways: N
// independent engine shards — each with its own log generation, heap
// arena, group-commit queue, checkpointer and pressure watermarks — sit
// behind a deterministic hash router, so single-key transactions run
// entirely shard-local and scale with the shard count. Multi-key
// transactions spanning shards are made crash-atomic by two-phase
// commit over the journal's prepared marks, coordinated by one shared
// commit-sequence record in NVRAM (see db.go in this package).
package shard

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/ext4"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// Platform is an N-shard machine. Two assembly modes exist, one per
// consumer:
//
//   - Shared domain (NewShared): ONE NVRAM persistence domain carved
//     into N windows, one heap arena per window, one flash device and
//     file system. All shards crash at the same instant under a single
//     op counter, which is what the crash-consistency torturer needs.
//     The shared clock serializes shard time (commits on different
//     shards cost wall time additively), so this mode measures
//     correctness, not scaling.
//   - Laned domains (NewLaned): one full domain/heap/flash/FS per
//     shard, each on its own lane of a parent clock. Lanes advance
//     independently and the parent tracks their maximum, modeling N
//     cores driving N shards in parallel — the mode the scaling bench
//     runs in. PowerFail is unsupported here (the domains would freeze
//     at unrelated instants).
//
// Either way, shard i sees an ordinary *platform.Platform view — the
// db layer runs unmodified — and counts its traffic into a per-shard
// labeled sink of one metrics Registry ("shard0", "shard1", ...).
// Device-level counters of shared hardware land under the "device"
// label; Registry.Aggregate() reassembles the whole-machine view.
type Platform struct {
	Clock    *simclock.Clock // shared clock (or lane parent)
	Registry *metrics.Registry

	views  []*platform.Platform
	shared bool

	// Shared-domain internals (nil in laned mode).
	dev     *nvram.Device // whole-domain device
	windows []*nvram.Device
	fs      *ext4.FS
}

// DeviceLabel is the Registry label of counters charged by shared
// hardware (the NVRAM domain, flash, file system) rather than by one
// shard's engine. Heap traffic also lands here in shared-domain mode:
// heapo charges its device's sink, and all windows share the device.
const DeviceLabel = "device"

func shardLabel(i int) string { return fmt.Sprintf("shard%d", i) }

// NewShared assembles an n-shard platform over one persistence domain:
// the device is split into n equal page-aligned windows, each formatted
// as an independent heap arena. cfg sizes the whole device; every shard
// gets roughly 1/n of it.
func NewShared(cfg platform.Config, n int) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", n)
	}
	p := &Platform{
		Clock:    simclock.New(),
		Registry: metrics.NewRegistry(),
		shared:   true,
	}
	devMetrics := p.Registry.Counters(DeviceLabel)
	p.dev = nvram.NewDevice(cfg.NVRAM, p.Clock, devMetrics)
	flash := blockdev.New(cfg.Flash, p.Clock, devMetrics)
	p.fs = ext4.New(flash)
	win := (uint64(p.dev.Size()) / uint64(n)) &^ (heapo.PageSize - 1)
	if win < 8*heapo.PageSize {
		return nil, fmt.Errorf("shard: device too small for %d shards", n)
	}
	for i := 0; i < n; i++ {
		w := p.dev.Window(uint64(i)*win, int(win))
		h, err := heapo.Format(w)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		p.windows = append(p.windows, w)
		p.views = append(p.views, &platform.Platform{
			Clock:   p.Clock,
			Metrics: p.Registry.Counters(shardLabel(i)),
			NVRAM:   w,
			Heap:    h,
			Flash:   flash,
			FS:      p.fs,
		})
	}
	return p, nil
}

// NewLaned assembles an n-shard platform with one full machine per
// shard, each on its own clock lane. cfg sizes ONE shard's hardware
// (every shard gets a device of cfg.NVRAM.Size), so throughput
// comparisons against a single-engine run on the same cfg are
// apples-to-apples per shard.
func NewLaned(cfg platform.Config, n int) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", n)
	}
	p := &Platform{
		Clock:    simclock.New(),
		Registry: metrics.NewRegistry(),
	}
	for i := 0; i < n; i++ {
		view, err := platform.Assemble(cfg, p.Clock.NewLane(), p.Registry.Counters(shardLabel(i)))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		p.views = append(p.views, view)
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Platform) Shards() int { return len(p.views) }

// View returns shard i's platform view.
func (p *Platform) View(i int) *platform.Platform { return p.views[i] }

// PowerFail crashes the machine (shared-domain mode only): the one
// domain loses its volatile lines under the policy, the file system
// its unsynced writes.
func (p *Platform) PowerFail(policy memsim.FailPolicy, seed int64) {
	if !p.shared {
		panic("shard: PowerFail requires a shared-domain platform")
	}
	p.dev.PowerFail(policy, seed)
	p.fs.PowerFail()
}

// ArmCrash installs a one-shot machine-wide crash trigger counted in
// the shared domain's persistence ops (shared-domain mode only).
func (p *Platform) ArmCrash(afterOps int64, policy memsim.FailPolicy, seed int64) {
	if !p.shared {
		panic("shard: ArmCrash requires a shared-domain platform")
	}
	p.dev.Domain().ArmCrash(afterOps, policy, seed, p.fs.Freeze)
}

// CrashTriggered reports whether an armed trigger has fired.
func (p *Platform) CrashTriggered() bool { return p.dev.Domain().CrashTriggered() }

// DisarmCrash removes an armed trigger and any frozen device images.
func (p *Platform) DisarmCrash() {
	p.dev.Domain().DisarmCrash()
	p.fs.Unfreeze()
}

// OpCount returns the shared domain's persistence-operation counter.
func (p *Platform) OpCount() int64 { return p.dev.Domain().OpCount() }

// Reboot recovers the machine after PowerFail: the domain comes back
// serving persisted content and every shard's heap arena reattaches
// and reclaims pending blocks. Re-open the sharded database afterwards.
func (p *Platform) Reboot() error {
	if !p.shared {
		panic("shard: Reboot requires a shared-domain platform")
	}
	p.dev.Recover()
	for i, w := range p.windows {
		h, err := heapo.Attach(w)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		h.ReclaimPending()
		p.views[i].Heap = h
	}
	return nil
}
