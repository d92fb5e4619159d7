package core

import "repro/internal/pager"

// Image recycling (DESIGN.md §15). A commit hands the log one private
// copy of every page it dirties, and that copy becomes the page's
// version; the version it replaces stays readable — through pinned
// readers, history payloads, base images and export batches — until a
// checkpoint round retires the commit that replaced it. From then on
// nothing may hold it, and the round hands it back to the writers, whose
// next page copy lands in it instead of in a fresh allocation.

// retiredImage is a version image publish replaced: mark is the log's
// mark after the commit that replaced it.
type retiredImage struct {
	img  []byte
	mark int
}

// poison, when set (race builds, recycle_race.go), overwrites every
// image a round releases, so a holder that outlives the release rule
// reads garbage instead of passing by luck.
var poison func(img []byte)

// queueRetired records that the commit ending at mark replaced prev as a
// page's version. A page restaged as the very image it already holds
// (a full frame of an unchanged page) replaced nothing. Caller holds
// w.mu exclusively.
func (w *NVWAL) queueRetired(prev, img []byte, mark int) {
	if prev == nil || &prev[0] == &img[0] {
		return
	}
	w.retired = append(w.retired, retiredImage{img: prev, mark: mark})
}

// Header commits. A commit whose page-1 frames all lie in the pager's
// header (page count, free list, a follower's position) has appendStreams
// copy their few bytes into hdrPay, so no history record aliases its
// image, and the commit replacing it spares it at once when nothing a
// round waits out holds it: a follower writing its position on every
// import then copies page 1 into the image the last import left.
// hdrLoose says the current page-1 version came from a header commit.

// inHeader reports whether every extent lies in page 1's header.
func inHeader(extents []Extent) bool {
	for _, e := range extents {
		if e.Off+e.Len > pager.HeaderReserved {
			return false
		}
	}
	return true
}

// detach copies a header commit's payload into hdrPay, a chunk that
// history records share and nothing writes twice. Caller holds w.mu
// exclusively.
func (w *NVWAL) detach(payload []byte) []byte {
	if cap(w.hdrPay)-len(w.hdrPay) < len(payload) {
		w.hdrPay = make([]byte, 0, 4096)
	}
	n := len(w.hdrPay)
	w.hdrPay = append(w.hdrPay, payload...)
	return w.hdrPay[n:len(w.hdrPay):len(w.hdrPay)]
}

// retire disposes of the version img replaces as pgno's image: spared at
// once if it is a header commit's page 1 that nothing can reach, queued
// for the next round otherwise. Caller holds w.mu exclusively.
func (w *NVWAL) retire(pgno uint32, prev, img []byte, mark int) {
	if pgno == 1 && w.hdrLoose && w.unreachable(prev, img) {
		w.spareMu.Lock()
		w.addSpare(prev)
		w.spareMu.Unlock()
		return
	}
	w.queueRetired(prev, img, mark)
}

// unreachable reports whether nothing can hold prev, the page-1 version
// img replaces: no round in flight, no batch out, not the page's base, no
// reader pinned. Caller holds w.mu exclusively, so no reader pins meanwhile.
func (w *NVWAL) unreachable(prev, img []byte) bool {
	if prev == nil || &prev[0] == &img[0] || w.ckpt != nil || w.exporting.Load() != 0 {
		return false
	}
	if base := w.pages[1].base; base != nil && &base[0] == &prev[0] {
		return false
	}
	w.pinMu.Lock()
	defer w.pinMu.Unlock()
	return len(w.pins) == 0
}

// addSpare puts a released image on the spare list. Caller holds
// w.spareMu.
func (w *NVWAL) addSpare(img []byte) {
	if w.spareHook != nil {
		w.spareHook(img, true)
	}
	if poison != nil {
		poison(img)
	}
	w.spare = append(w.spare, img)
}

// releaseImages is the release rule, run by a completing round after it
// retired the frames below its watermark. Every version a commit at or
// below the watermark replaced is out of reach by then:
//   - readers: the round passed no pinned mark, so a pinned reader's
//     mark is at or above the watermark, where each of these images had
//     already been replaced; a reader that unpinned holds no image;
//   - the log: the frames that aliased them are retired, their payloads
//     copied into the export tail if kept, and base now holds the
//     watermark's images (completeCheckpoint);
//   - shippers: a batch ExportSince cut aliases the images its frames
//     were logged from, which later commits may have replaced. While a
//     batch is out (ExportDone) this round releases nothing, and its
//     images are left to the GC. A batch cut after the round aliases
//     none of them: its frames are at or above the watermark, logged
//     from images no commit at or below it replaced, or copies in the
//     export tail.
//
// Released images join the spares the writers left untaken, of which a
// round keeps at most as many as it releases: rounds differ in size, and
// what a short round's writers left is there for the long one after it.
// The list never holds more than twice one round's retirements, and a
// round that released nothing leaves it empty. Caller holds w.mu
// exclusively.
func (w *NVWAL) releaseImages(watermark int) {
	n := 0
	for n < len(w.retired) && w.retired[n].mark <= watermark {
		n++
	}
	release := w.exporting.Load() == 0
	w.spareMu.Lock()
	keep := 0
	if release {
		keep = min(len(w.spare), n)
	}
	clear(w.spare[keep:])
	w.spare = w.spare[:keep]
	if release {
		for _, r := range w.retired[:n] {
			w.addSpare(r.img)
		}
	}
	w.spareMu.Unlock()
	m := copy(w.retired, w.retired[n:])
	clear(w.retired[m:])
	w.retired = w.retired[:m]
}

// SpareImage implements pager.ImageRecycler: a page image a checkpoint
// round released — nobody holds it, its content is unspecified — or nil
// when the last round released none or they are all taken. Safe for
// concurrent use; it does not take the writer lock.
func (w *NVWAL) SpareImage() []byte {
	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	n := len(w.spare)
	if n == 0 {
		return nil
	}
	img := w.spare[n-1]
	w.spare[n-1] = nil
	w.spare = w.spare[:n-1]
	if w.spareHook != nil {
		w.spareHook(img, false)
	}
	return img
}
