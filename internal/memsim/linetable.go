package memsim

import (
	"math"
	"time"
)

// lineTable is the simulator's per-line bookkeeping: which lines are
// dirty in the cache (and in what LRU order), which sit in the memory
// controller's queue, and the content snapshot each queued write-back
// carries. A line is named by its number (address / line size).
//
// Three flat arrays, indexed by integers, so touching a line hashes
// nothing, chases no pointer and allocates nothing:
//
//   - index maps every line number of the domain to a slot, 0 meaning
//     the line is clean and unqueued (the common case: no state at all).
//     It is allocated whole and zero; pages of it nobody touches stay
//     the allocator's untouched zero pages.
//   - slots holds the state of the lines that have some, the LRU links
//     threaded through it as slot numbers. Slot 0 is the nil slot. It
//     grows to the most lines that ever held state at once and is reused
//     through free, a stack of released slot numbers (a stack beside the
//     arena, not a list through it: popping reads the stack's hot top
//     and then only stores to the slot, so a slot gone cold costs no
//     load miss).
//   - snaps is slot-parallel: slot s's write-back snapshot is
//     snaps[s*lineSize : (s+1)*lineSize].
//
// Links and index entries are int32: half the index of an int (4 bytes
// per line, 1/8 of the domain at 32-byte lines, 1/16 at 64), and 2^31
// lines is a 64 GiB domain. Host memory only; nothing here is simulated
// state beyond what the fields say.
type lineTable struct {
	lineSize int
	index    []int32
	slots    []lineSlot
	snaps    []byte
	free     []int32

	// LRU list of the dirty slots; head = most recently stored to.
	lruHead, lruTail int32
	dirty            int

	// queued lists every slot whose write-back the memory controller
	// accepted since the last barrier drained it, in acceptance order, so
	// a barrier's host cost follows the lines it persists. Each such slot
	// has queued set and appears exactly once.
	queued []int32
}

// lineSlot is one line's state. A slot in use is dirty, queued or both
// (stored to again after its flush); one that is neither is released.
type lineSlot struct {
	line       int32 // the line number: the slot's key in index
	prev, next int32 // LRU neighbours while dirty
	dirty      bool  // in cache, not yet flushed/evicted
	queued     bool  // write-back accepted by the memory controller
	completion time.Duration
}

func newLineTable(size, lineSize int) lineTable {
	lines := (size + lineSize - 1) / lineSize
	if lines > math.MaxInt32 {
		panic("memsim: domain has more than 2^31 cache lines")
	}
	return lineTable{
		lineSize: lineSize,
		index:    make([]int32, lines),
		slots:    make([]lineSlot, 1, 64),
		snaps:    make([]byte, lineSize, 64*lineSize),
	}
}

// acquire gives line a slot (it must have none).
func (t *lineTable) acquire(line int32) int32 {
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = int32(len(t.slots))
		t.slots = append(t.slots, lineSlot{})
		t.snaps = append(t.snaps, make([]byte, t.lineSize)...)
	}
	t.slots[s] = lineSlot{line: line}
	t.index[line] = s
	return s
}

// release returns a slot that is neither dirty nor queued.
func (t *lineTable) release(s int32) {
	t.index[t.slots[s].line] = 0
	t.free = append(t.free, s)
}

// live is the number of slots in use (dirty or queued).
func (t *lineTable) live() int { return len(t.slots) - 1 - len(t.free) }

// snap is slot s's snapshot buffer.
func (t *lineTable) snap(s int32) []byte {
	off := int(s) * t.lineSize
	return t.snaps[off : off+t.lineSize : off+t.lineSize]
}

// reset forgets every line's state, keeping the arrays.
func (t *lineTable) reset() {
	for _, sl := range t.slots[1:] {
		if sl.dirty || sl.queued {
			t.index[sl.line] = 0
		}
	}
	t.slots = t.slots[:1]
	t.snaps = t.snaps[:t.lineSize]
	t.free = t.free[:0]
	t.lruHead, t.lruTail, t.dirty = 0, 0, 0
	t.queued = t.queued[:0]
}

func (t *lineTable) lruPushFront(s int32) {
	sl := &t.slots[s]
	sl.prev, sl.next = 0, t.lruHead
	if t.lruHead != 0 {
		t.slots[t.lruHead].prev = s
	} else {
		t.lruTail = s
	}
	t.lruHead = s
}

func (t *lineTable) lruRemove(s int32) {
	sl := &t.slots[s]
	if sl.prev != 0 {
		t.slots[sl.prev].next = sl.next
	} else {
		t.lruHead = sl.next
	}
	if sl.next != 0 {
		t.slots[sl.next].prev = sl.prev
	} else {
		t.lruTail = sl.prev
	}
	sl.prev, sl.next = 0, 0
}

func (t *lineTable) lruMoveFront(s int32) {
	if t.lruHead != s {
		t.lruRemove(s)
		t.lruPushFront(s)
	}
}
