package shard

import (
	"fmt"
	"sync"

	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/nvram"
)

// The shardctl record is the coordinator's only persistent state: one
// NVRAM block in shard 0's heap, found through the heap's namespace
// table, holding
//
//	[0:8)   magic
//	[8:16)  shard count (layout guard: reopening with a different N
//	        would silently misroute keys)
//	[16:24) lastAlloc — the high-water mark of issued global
//	        transaction ids; persisted BEFORE any prepare uses a new id,
//	        so an id is never reused even if its transaction dies
//	[24:32) lastCommitted — the commit sequence record. Cross-shard 2PC
//	        rounds are serialized and allocate ascending ids, so one
//	        8-byte-atomic durable store of gtx here is the whole decide
//	        phase: a global transaction is committed iff gtx ≤
//	        lastCommitted. Recovery's PreparedResolver is exactly that
//	        predicate.
//
// The soundness of "≤" rests on two invariants the front-end enforces:
// rounds run one at a time under s.mu (so a later round cannot commit
// while an earlier round's marks are still provisional), and an aborted
// round physically unwinds its prepared marks before the mutex is
// released (so no frame carrying a skipped id survives to be resolved).
const (
	ctlMagic        = 0x4e56574153484431 // "NVWASHD1"
	ctlNShardsOff   = 8
	ctlAllocOff     = 16
	ctlCommittedOff = 24
	ctlSize         = 32
	ctlRootName     = "shardctl"
)

type ctlRecord struct {
	mu   sync.Mutex
	dev  *nvram.Device // shard 0's window
	addr uint64
}

// openCtl finds the shardctl record in shard 0's heap, creating and
// formatting it on first open. The create follows heapo's pending-
// block discipline: a crash before the namespace binding persists
// leaves only a pending block, which recovery reclaims.
func openCtl(h *heapo.Manager, nshards int) (*ctlRecord, error) {
	dev := h.Device()
	if addr, ok := h.GetRoot(ctlRootName); ok {
		c := &ctlRecord{dev: dev, addr: addr}
		if got := dev.Uint64(addr); got != ctlMagic {
			return nil, fmt.Errorf("shard: bad shardctl magic %#x", got)
		}
		if got := int(dev.Uint64(addr + ctlNShardsOff)); got != nshards {
			return nil, fmt.Errorf("shard: database has %d shards, opened with %d", got, nshards)
		}
		return c, nil
	}
	b, err := h.NVPreMalloc(ctlSize)
	if err != nil {
		return nil, fmt.Errorf("shard: allocating shardctl: %w", err)
	}
	dev.PutUint64(b.Addr, ctlMagic)
	dev.PutUint64(b.Addr+ctlNShardsOff, uint64(nshards))
	dev.PutUint64(b.Addr+ctlAllocOff, 0)
	dev.PutUint64(b.Addr+ctlCommittedOff, 0)
	persist(dev, b.Addr, b.Addr+ctlSize)
	if err := h.SetRoot(ctlRootName, b.Addr); err != nil {
		return nil, err
	}
	if err := h.NVMallocSetUsedFlag(b); err != nil {
		return nil, err
	}
	return &ctlRecord{dev: dev, addr: b.Addr}, nil
}

// persist makes [start,end) durable with the standard store discipline.
func persist(dev *nvram.Device, start, end uint64) {
	dev.Sync([]memsim.AddrRange{{Start: start, End: end}}, memsim.SyncFence|memsim.SyncPersist)
}

// allocate issues the next global transaction id, durably, before the
// caller may use it in a prepare.
func (c *ctlRecord) allocate() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gtx := c.dev.Uint64(c.addr+ctlAllocOff) + 1
	c.dev.PutUint64(c.addr+ctlAllocOff, gtx)
	persist(c.dev, c.addr+ctlAllocOff, c.addr+ctlAllocOff+8)
	return gtx
}

// commit is the decide phase: one durable 8-byte-atomic store of gtx
// into the commit sequence record. After it returns, the global
// transaction is committed no matter what crashes next.
func (c *ctlRecord) commit(gtx uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dev.PutUint64(c.addr+ctlCommittedOff, gtx)
	persist(c.dev, c.addr+ctlCommittedOff, c.addr+ctlCommittedOff+8)
}

// lastCommitted reads the commit sequence record.
func (c *ctlRecord) lastCommitted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dev.Uint64(c.addr + ctlCommittedOff)
}
