// Replication surface. A primary database hands its log to a shipping
// agent through two hooks: ExportSince streams committed frame ranges in
// journal mark space (the incremental path; what it still holds for an
// agent is the journal's business, see core.ExportCursor), and
// ExportPages captures a full point-in-time page image (the re-seed path
// a replica falls back to when its range is no longer retained, or when
// it detects divergence) whose size SeedBytes tells beforehand. A
// follower's database takes both back through one entry, ImportFrames,
// which commits the follower's Position with them.
package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pager"
)

// ErrNoExport marks journal modes without a replication hook; only
// NVWAL-journaled databases ship log generations.
var ErrNoExport = fmt.Errorf("db: journal mode has no export hook")

// ExportSince returns the committed NVWAL frames in [from, to), their
// list built in frames' array (core.NVWAL.ExportSince). ok=false means
// the range is no longer retained (or lies past the mark) and the caller
// must re-seed via ExportPages. A batch with frames is handed back with
// ExportDone once its payloads are no longer read.
func (d *DB) ExportSince(from, to int, frames []core.ExportFrame) (core.ExportBatch, bool, error) {
	if d.nv == nil {
		return core.ExportBatch{}, false, ErrNoExport
	}
	b, ok := d.nv.ExportSince(from, to, frames)
	return b, ok, nil
}

// ExportDone hands back a batch with frames ExportSince returned
// (core.NVWAL.ExportDone).
func (d *DB) ExportDone() { d.nv.ExportDone() }

// SeedBytes is the size of the snapshot ExportPages would capture now:
// the header's page count times the page size.
func (d *DB) SeedBytes() (int64, error) {
	if d.view == nil {
		return 0, ErrNoExport
	}
	mark := d.nv.Pin()
	defer d.nv.Unpin(mark)
	hdr, _, err := d.view.PageAt(1, mark)
	if err != nil {
		return 0, err
	}
	return int64(pager.HeaderPageCount(hdr)) * int64(d.view.PageSize()), nil
}

// PageSnapshot is a full database image at one journal mark: every
// page's content with the log applied through Mark. It is the re-seed
// payload for replication and is internally consistent — the mark is
// pinned against checkpointing for the duration of the capture.
type PageSnapshot struct {
	Mark     int
	PageSize int
	Pages    []pager.Frame
}

// ExportPages captures a full point-in-time snapshot. The mark is
// pinned exactly the way BeginRead pins a snapshot reader, so a
// concurrent incremental checkpoint can never invalidate the images
// mid-capture. The snapshot's pages are its own copies, in one arena:
// the log's images may be recycled once the mark is unpinned.
func (d *DB) ExportPages() (*PageSnapshot, error) {
	if d.view == nil {
		return nil, ErrNoExport
	}
	mark := d.nv.Pin()
	defer d.nv.Unpin(mark)

	// The page count lives in the header page; reading it at the pinned
	// mark keeps the capture self-consistent even while writers extend
	// the file.
	hdr, _, err := d.view.PageAt(1, mark)
	if err != nil {
		return nil, err
	}
	count := pager.HeaderPageCount(hdr)
	ps := d.view.PageSize()
	snap := &PageSnapshot{
		Mark:     mark,
		PageSize: ps,
		Pages:    make([]pager.Frame, 0, count),
	}
	arena := make([]byte, int(count)*ps)
	for pgno := uint32(1); pgno <= count; pgno++ {
		data := hdr
		if pgno > 1 {
			if data, _, err = d.view.PageAt(pgno, mark); err != nil {
				return nil, err
			}
		}
		own := arena[:ps:ps]
		arena = arena[ps:]
		copy(own, data)
		snap.Pages = append(snap.Pages, pager.Frame{Pgno: pgno, Data: own})
	}
	return snap, nil
}

// Position is where a follower database stands in the log it follows: the
// log's incarnation, the mark applied through and the export chain there.
// It lives in page 1's header (pager.HeaderPositionOff), so the commit
// mark that publishes an import's frames publishes it too. The zero
// Position means none.
type Position struct {
	Incarnation uint64
	Applied     int
	Chain       uint32
}

// ImportedPosition returns the Position the last ImportFrames committed.
// A page 1 that cannot be read, or holds a mark no journal could have, is
// an error.
func (d *DB) ImportedPosition() (Position, error) {
	if d.view == nil {
		return Position{}, ErrNoExport
	}
	mark := d.nv.Pin()
	defer d.nv.Unpin(mark)
	hdr, _, err := d.view.PageAt(1, mark)
	if err != nil {
		return Position{}, err
	}
	b := hdr[pager.HeaderPositionOff:]
	applied := binary.LittleEndian.Uint64(b[8:])
	if applied > math.MaxInt {
		return Position{}, fmt.Errorf("db: page 1 holds applied mark %d", applied)
	}
	return Position{
		Incarnation: binary.LittleEndian.Uint64(b),
		Applied:     int(applied),
		Chain:       binary.LittleEndian.Uint32(b[16:]),
	}, nil
}

// ImportFrames applies frames shipped from a primary — an ExportSince
// batch, or an ExportPages snapshot as one Full frame per page — as one
// write transaction: each frame patches its page's committed image (a
// Full frame replaces it) in order, then pos goes into page 1's header
// (after the frames: a shipped page 1's bytes there mean nothing here),
// and the dirty pages commit through the journal like any transaction's,
// logged against the versions the log holds. A frame that overruns its
// page, a page that cannot be read, or one past the page count the
// batch's page-1 frames leave (pager.ErrPageRange) fails the batch and
// nothing of it is applied. NVWAL journals only.
func (d *DB) ImportFrames(frames []core.ExportFrame, pos Position) error {
	if d.nv == nil {
		return ErrNoExport
	}
	if err := d.claimSlot(context.Background()); err != nil {
		return err
	}
	d.pg.Begin()
	if err := d.importFrames(frames, pos); err != nil {
		d.pg.Rollback()
		d.releaseSlot()
		return err
	}
	// The frames may move any table's root, page 1 included: no tree
	// opened before them may serve again.
	d.treeMu.Lock()
	clear(d.trees)
	d.treeMu.Unlock()
	_, err := d.commitHeldTxn(d.newDeadline(context.Background())) // releases the slot
	return err
}

// importFrames patches the frames, then pos, into their pages inside the
// open transaction. Page 1's frames go first: the page count they leave
// bounds every other page's (the pager refuses a page past it), and each
// frame patches only its own page, so only a page's own frames keep their
// order.
func (d *DB) importFrames(frames []core.ExportFrame, pos Position) error {
	for _, pass := range [2]bool{true, false} {
		for _, fr := range frames {
			if (fr.Pgno == 1) != pass {
				continue
			}
			if err := d.importFrame(fr); err != nil {
				return err
			}
		}
	}
	var rec [20]byte
	binary.LittleEndian.PutUint64(rec[0:], pos.Incarnation)
	binary.LittleEndian.PutUint64(rec[8:], uint64(pos.Applied))
	binary.LittleEndian.PutUint32(rec[16:], pos.Chain)
	return d.importFrame(core.ExportFrame{Pgno: 1, Off: pager.HeaderPositionOff, Payload: rec[:]})
}

// importFrame patches fr into its page inside the open transaction.
func (d *DB) importFrame(fr core.ExportFrame) error {
	if _, err := d.pg.Get(fr.Pgno); err != nil {
		return err
	}
	img := d.pg.MarkDirty(fr.Pgno)
	if int(fr.Off)+len(fr.Payload) > len(img) {
		return fmt.Errorf("db: imported frame overruns page %d", fr.Pgno)
	}
	if fr.Full {
		clear(img)
	}
	copy(img[fr.Off:], fr.Payload)
	return nil
}

// parseCatalog is the one decoder of the catalog layout CreateTable and
// DropTable edit: the tables of a header-page image by name. A count past
// what fits in the page, or a name listed twice, is a corrupt page 1 and
// an error — read as it stands, the first slices past the page and the
// second hides a table. Page 1 arrives from outside the engine too: a
// salvaged file, a replica's shipped image.
func parseCatalog(hdr []byte) (map[string]uint32, error) {
	n := int(binary.LittleEndian.Uint16(hdr[catalogOff:]))
	if limit := maxTables(len(hdr)); n > limit {
		return nil, fmt.Errorf("%w: %d tables listed, page 1 holds %d", errCorruptCatalog, n, limit)
	}
	out := make(map[string]uint32, n)
	for i := range n {
		name, root := catalogSlot(hdr, i)
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%w: table %q listed twice", errCorruptCatalog, name)
		}
		out[name] = root
	}
	return out, nil
}

// catalogSlot decodes entry i of a catalog parseCatalog accepted (i below
// its table count).
func catalogSlot(hdr []byte, i int) (name string, root uint32) {
	off := catalogOff + 2 + i*tableEntry
	return strings.TrimRight(string(hdr[off:off+tableNameLen]), "\x00"), binary.LittleEndian.Uint32(hdr[off+tableNameLen:])
}

// catalogCache memoises parseCatalog against the catalog bytes it last
// parsed — the table count and its entries, copied out of page 1. Not
// the image's address: a checkpoint round recycles retired page images
// (DESIGN.md §15), so one address holds different page-1 versions over
// time. Header images that list the same tables share one parsed map,
// which readers must treat as read-only; a hit compares a few dozen
// bytes and allocates nothing. It holds ONE catalog: readers pinned at
// page-1 versions with different catalogs evict each other and parse per
// tree open, as every reader did before the memo — still correct, and a
// ReadTx or session caches the trees it opened anyway. The zero value is
// ready; safe for concurrent use.
type catalogCache struct {
	last atomic.Pointer[parsedCatalog]
}

type parsedCatalog struct {
	raw    []byte // catalogBytes of the parsed image, a copy
	tables map[string]uint32
}

// catalogBytes is the catalog region of a header-page image: the count
// and the entries it lists, clamped to what fits in the page.
func catalogBytes(hdr []byte) []byte {
	n := min(int(binary.LittleEndian.Uint16(hdr[catalogOff:])), maxTables(len(hdr)))
	return hdr[catalogOff : catalogOff+2+n*tableEntry]
}

// Parse returns the catalog of the header-page image hdr. A corrupt
// catalog is an error and is not memoised.
func (c *catalogCache) Parse(hdr []byte) (map[string]uint32, error) {
	raw := catalogBytes(hdr)
	if p := c.last.Load(); p != nil && bytes.Equal(p.raw, raw) {
		return p.tables, nil
	}
	tables, err := parseCatalog(hdr)
	if err != nil {
		return nil, err
	}
	c.last.Store(&parsedCatalog{raw: bytes.Clone(raw), tables: tables})
	return tables, nil
}
