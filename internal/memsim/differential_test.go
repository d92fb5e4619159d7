// Differential test for the barrier drain: a seeded random script of
// stores, flushes, barriers, armed crashes and power failures must
// leave exactly the durable image, virtual time, op count and counters
// recorded from the implementation that walked the whole line map on
// every barrier. The host-side bookkeeping may change; none of these
// may.
package memsim

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// diffOutcome is everything a differential script observes. Hash folds
// the durable image, the clock and the op count at every power failure
// and at the end, plus the final volatile view.
type diffOutcome struct {
	Hash     uint64
	Now      time.Duration
	Ops      int64
	Counters uint32 // crc32 of the counters snapshot rendered as text
}

// differentialGolden was recorded at the commit preceding the queued-
// line list (PersistBarrier and EpochBarrier ranging over d.lines).
var differentialGolden = map[FailPolicy]diffOutcome{
	FailDropAll:       {Hash: 0x81c474fa906e15f5, Now: 43093707, Ops: 15097, Counters: 0x67b29e38},
	FailKeepCompleted: {Hash: 0x5daa587e4ee94991, Now: 43107278, Ops: 15395, Counters: 0x1e5a07b0},
	FailAdversarial:   {Hash: 0xa46ca684c53faaee, Now: 43113643, Ops: 14916, Counters: 0x715e2719},
}

const (
	diffSize       = 12 << 20
	diffHotWindow  = 32 << 10
	diffSteps      = 4000
	diffBurstLines = 300_000
)

func runDifferentialScript(policy FailPolicy, seed int64) diffOutcome {
	clock := simclock.New()
	m := &metrics.Counters{}
	// A small cache makes evictions (write-backs nobody flushed) routine
	// and lets the burst park almost all of its lines in the controller
	// queue at once.
	d := New(Config{Size: diffSize, CacheCapacityLines: 96}, clock, m)
	ls := uint64(d.LineSize())
	rng := rand.New(rand.NewSource(seed))
	image := make([]byte, diffSize)
	h := fnv.New64a()
	fold := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	observe := func() {
		d.ReadPersisted(0, image)
		fold(uint64(crc32.ChecksumIEEE(image)))
		fold(uint64(clock.Now()))
		fold(uint64(d.OpCount()))
	}
	addr := func(n int) uint64 {
		if rng.Intn(10) == 0 {
			return uint64(rng.Intn(diffSize - n))
		}
		return uint64(rng.Intn(diffHotWindow - n))
	}
	payload := func() []byte {
		p := make([]byte, 1+rng.Intn(256))
		rng.Read(p)
		return p
	}
	step := func() {
		switch r := rng.Intn(100); {
		case r < 40:
			p := payload()
			d.Write(addr(len(p)), p)
		case r < 50:
			a, b, c := payload(), payload(), payload()
			d.WriteV(addr(len(a)+len(b)+len(c)), a, b, c)
		case r < 65:
			n := 1 + rng.Intn(1024)
			start := addr(n)
			d.CacheLineFlush(start, start+uint64(n))
		case r < 75:
			d.MemoryBarrier()
		case r < 88:
			d.PersistBarrier()
		case r < 91:
			d.EpochBarrier()
		case r < 96:
			d.ArmCrash(int64(1+rng.Intn(40)), policy, rng.Int63(), nil)
		}
	}
	for i := 0; i < diffSteps; i++ {
		if i == diffSteps/2 {
			// The burst: the line map holds 300 k entries at once and
			// never shrinks again; the barriers after it must still
			// persist exactly what they did before.
			page := make([]byte, 128*ls)
			rng.Read(page)
			base := uint64(1 << 20)
			for l := uint64(0); l < diffBurstLines; l += 128 {
				d.Write(base+l*ls, page)
			}
		}
		if rng.Intn(50) == 0 {
			d.PowerFail(policy, rng.Int63())
			observe()
			// Ghost execution against the failed domain: every one of
			// these must be dropped.
			for j := 0; j < 5; j++ {
				step()
			}
			d.Recover()
			continue
		}
		step()
	}
	observe()
	d.Read(0, image)
	fold(uint64(crc32.ChecksumIEEE(image)))
	return diffOutcome{
		Hash:     h.Sum64(),
		Now:      clock.Now(),
		Ops:      d.OpCount(),
		Counters: crc32.ChecksumIEEE([]byte(m.Snapshot().String())),
	}
}

func TestDifferentialAgainstRecordedBarrierWalk(t *testing.T) {
	for policy, want := range differentialGolden {
		got := runDifferentialScript(policy, 20160402+int64(policy))
		if got != want {
			t.Errorf("policy %d: outcome moved\n got: %#v\nwant: %#v", policy, got, want)
		}
	}
}
