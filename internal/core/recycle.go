package core

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
			if w.spareHook != nil {
				w.spareHook(r.img, true)
			}
			if poison != nil {
				poison(r.img)
			}
			w.spare = append(w.spare, r.img)
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
