package heapo

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// scanFreeRuns is the metadata scan the summary replaced, kept as the
// reference: the length of every maximal free run, read word by word
// from NVRAM.
func scanFreeRuns(m *Manager) []int {
	var runs []int
	cur := 0
	for page := 0; page < m.pageCount; page++ {
		if st, _ := m.readMeta(page); st == StateFree {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if cur > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// scanAdmit is the admission rule evaluated against a fresh scan, with
// the same inputs admitLocked takes; promised is reservedByRun with any
// hypothetical promise already added.
func scanAdmit(m *Manager, promised map[int]int, carvePages, poolClass int, privileged bool) bool {
	if len(promised) == 0 && (m.headroom == 0 || privileged) {
		return true
	}
	runs := scanFreeRuns(m)
	check := func(class int) bool {
		avail := len(m.recycled[class])
		for _, rl := range runs {
			avail += rl / class
		}
		if carvePages > 0 {
			avail -= ceilDiv(carvePages, class)
		}
		if poolClass == class {
			avail--
		}
		need := 0
		for run, blocks := range promised {
			need += blocks * ceilDiv(run, class)
		}
		if !privileged && m.headroom > 0 {
			need += ceilDiv(m.headroom, class)
		}
		return avail >= need
	}
	for class := range promised {
		if !check(class) {
			return false
		}
	}
	return privileged || m.headroom == 0 || check(m.headroom)
}

// checkSummary asserts the volatile summary equals a fresh scan: the
// per-page bits, the run-length histogram and the free-page count.
func checkSummary(t *testing.T, m *Manager, step string) {
	t.Helper()
	free := 0
	for page := 0; page < m.pageCount; page++ {
		st, _ := m.readMeta(page)
		if got := m.sum.isFree(page); got != (st == StateFree) {
			t.Fatalf("%s: page %d is %s in NVRAM, summary says free=%v", step, page, stateName(st), got)
		}
		if st == StateFree {
			free++
		}
	}
	want := make(map[int]int)
	for _, rl := range scanFreeRuns(m) {
		want[rl]++
	}
	if fmt.Sprint(want) != fmt.Sprint(m.sum.runs) {
		t.Fatalf("%s: run histogram %v, fresh scan gives %v", step, m.sum.runs, want)
	}
	if m.freePages != free {
		t.Fatalf("%s: freePages = %d, fresh scan gives %d", step, m.freePages, free)
	}
}

// summaryDriver runs one seeded random sequence of every call that
// reads or writes page metadata, checking the summary after each step
// and every admit/deny decision against scanAdmit before it.
type summaryDriver struct {
	t        *testing.T
	m        *Manager
	rng      *rand.Rand
	pending  []Block
	inUse    []Block
	reserved []*Reservation
}

// promisedPlus is reservedByRun with one more promise added, the state
// Reserve checks the invariant against.
func (d *summaryDriver) promisedPlus(run, blocks int) map[int]int {
	p := make(map[int]int, len(d.m.reservedByRun)+1)
	for k, v := range d.m.reservedByRun {
		p[k] = v
	}
	p[run] += blocks
	return p
}

// expect holds a call's outcome to the reference decision: admitted
// calls succeed, denied ones fail with ErrNoSpace.
func (d *summaryDriver) expect(step string, admit bool, err error) {
	d.t.Helper()
	if admit && err != nil {
		d.t.Fatalf("%s: scan admits, got %v", step, err)
	}
	if !admit && !errors.Is(err, ErrNoSpace) {
		d.t.Fatalf("%s: scan denies, got %v", step, err)
	}
}

func take(list *[]Block, rng *rand.Rand) (Block, bool) {
	if len(*list) == 0 {
		return Block{}, false
	}
	i := rng.Intn(len(*list))
	b := (*list)[i]
	*list = append((*list)[:i], (*list)[i+1:]...)
	return b, true
}

func (d *summaryDriver) step(i int) {
	m, rng := d.m, d.rng
	pages := 1 + rng.Intn(3)
	step := fmt.Sprintf("step %d", i)
	switch op := rng.Intn(12); op {
	case 0: // Reserve
		blocks := 1 + rng.Intn(3)
		admit := scanAdmit(m, d.promisedPlus(pages, blocks), 0, 0, false)
		r, err := m.Reserve(blocks, pages*PageSize)
		d.expect(step+" Reserve", admit, err)
		if err == nil {
			d.reserved = append(d.reserved, r)
		}
	case 1: // debit a reservation (a promised debit can never fail)
		if len(d.reserved) == 0 {
			return
		}
		r := d.reserved[rng.Intn(len(d.reserved))]
		if r.Remaining() == 0 {
			return
		}
		// Pool blocks back a promise but only a pending debit may take
		// them, so in-use debits are drawn while the pool is empty.
		if m.recycledPages > 0 || rng.Intn(2) == 0 {
			b, err := r.PreMalloc((1 + rng.Intn(r.run)) * PageSize)
			d.expect(step+" Reservation.PreMalloc", true, err)
			d.pending = append(d.pending, b)
		} else {
			b, err := r.Malloc((1 + rng.Intn(r.run)) * PageSize)
			d.expect(step+" Reservation.Malloc", true, err)
			d.inUse = append(d.inUse, b)
		}
	case 2: // Release
		if len(d.reserved) == 0 {
			return
		}
		j := rng.Intn(len(d.reserved))
		d.reserved[j].Release()
		d.reserved = append(d.reserved[:j], d.reserved[j+1:]...)
	case 3: // NVMalloc
		admit := scanAdmit(m, m.reservedByRun, pages, 0, false)
		_, findable := m.findRun(pages)
		b, err := m.NVMalloc(pages * PageSize)
		d.expect(step+" NVMalloc", admit && findable, err)
		if err == nil {
			d.inUse = append(d.inUse, b)
		}
	case 4: // NVPreMalloc, from the pool when it holds the size
		var admit bool
		if len(m.recycled[pages]) > 0 {
			admit = scanAdmit(m, m.reservedByRun, 0, pages, false)
		} else {
			_, findable := m.findRun(pages)
			admit = findable && scanAdmit(m, m.reservedByRun, pages, 0, false)
		}
		b, err := m.NVPreMalloc(pages * PageSize)
		d.expect(step+" NVPreMalloc", admit, err)
		if err == nil {
			d.pending = append(d.pending, b)
		}
	case 5: // NVMallocHeadroom
		admit := scanAdmit(m, m.reservedByRun, pages, 0, true)
		_, findable := m.findRun(pages)
		b, err := m.NVMallocHeadroom(pages * PageSize)
		d.expect(step+" NVMallocHeadroom", admit && findable, err)
		if err == nil {
			d.inUse = append(d.inUse, b)
		}
	case 6: // pending → in-use
		if b, ok := take(&d.pending, rng); ok {
			if err := m.NVMallocSetUsedFlag(b); err != nil {
				d.t.Fatalf("%s SetUsedFlag: %v", step, err)
			}
			d.inUse = append(d.inUse, b)
		}
	case 7, 8: // NVFree
		list := &d.inUse
		if rng.Intn(3) == 0 {
			list = &d.pending
		}
		if b, ok := take(list, rng); ok {
			if err := m.NVFree(b); err != nil {
				d.t.Fatalf("%s NVFree: %v", step, err)
			}
		}
	case 9: // Recycle
		// Parked in the pool or, past the limit, freed: either way only
		// a later allocation hands the block out again.
		if b, ok := take(&d.inUse, rng); ok {
			if err := m.Recycle(b); err != nil {
				d.t.Fatalf("%s Recycle: %v", step, err)
			}
		}
	case 10: // Quarantine (rare: it removes capacity for good)
		if rng.Intn(4) != 0 {
			return
		}
		if b, ok := take(&d.inUse, rng); ok {
			if err := m.Quarantine(b); err != nil {
				d.t.Fatalf("%s Quarantine: %v", step, err)
			}
		}
	case 11: // ReclaimPending (rare: it is the recovery path)
		if rng.Intn(6) != 0 {
			return
		}
		m.ReclaimPending()
		d.pending = d.pending[:0]
	}
}

func TestPropertySummaryMatchesMetadataScan(t *testing.T) {
	shapes := []struct {
		name     string
		pages    int
		headroom int
		fragment bool
	}{
		{"tiny", 24, 0, false},
		{"tiny-headroom", 24, 2, false},
		{"fragmented", 200, 2, true}, // spans four bitmap words
		{"word-aligned", 128, 0, true},
	}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", shape.name, seed), func(t *testing.T) {
				m, _, _ := newHeap(t, SizeForPages(shape.pages))
				m.SetRecycleLimit(6)
				m.EnsureHeadroom(shape.headroom)
				d := &summaryDriver{t: t, m: m, rng: rand.New(rand.NewSource(seed))}
				checkSummary(t, m, "after Format")
				if shape.fragment {
					// Fill the heap with single pages and free a random
					// two thirds, leaving islands of every small length.
					var all []Block
					for {
						b, err := m.NVMalloc(PageSize)
						if err != nil {
							break
						}
						all = append(all, b)
					}
					for _, b := range all {
						if d.rng.Intn(3) != 0 {
							if err := m.NVFree(b); err != nil {
								t.Fatal(err)
							}
						} else {
							d.inUse = append(d.inUse, b)
						}
					}
					checkSummary(t, m, "after fragmenting")
				}
				for i := 0; i < 400; i++ {
					d.step(i)
					checkSummary(t, m, fmt.Sprintf("step %d", i))
				}
				// A reboot builds the same summary from NVRAM alone.
				re, err := Attach(m.dev)
				if err != nil {
					t.Fatal(err)
				}
				checkSummary(t, re, "after Attach")
			})
		}
	}
}

// A failed domain drops the ghost's stores and serves loads from the
// persisted image, so metadata stops following writeMeta; admission
// must keep deciding from what the loads return, as the scan did.
func TestAdmissionOnFailedDomainFollowsLoads(t *testing.T) {
	m, dev, _ := newHeap(t, SizeForPages(24))
	m.EnsureHeadroom(2)
	res, err := m.Reserve(4, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	dev.PowerFail(memsim.FailDropAll, 1)
	// Every ghost allocation lands on the same never-updated metadata:
	// none of them consumes space, so none may be denied — and the
	// decisions must be the scan's throughout.
	for i := 0; i < 40; i++ {
		admit := scanAdmit(m, m.reservedByRun, 2, 0, false)
		_, err := m.NVMalloc(2 * PageSize)
		if admit != (err == nil) {
			t.Fatalf("ghost NVMalloc %d: scan admit=%v, got %v", i, admit, err)
		}
		if err != nil {
			t.Fatalf("ghost NVMalloc %d denied: %v", i, err)
		}
	}
}
