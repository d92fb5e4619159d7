package db

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pager"
)

// ErrNoSnapshots is returned by BeginRead under every journal mode but
// JournalNVWAL, the one log that keeps page versions by mark. The flash
// WALs are the paper's single-writer baselines, and the rollback journal
// updates the database file in place, so readers cannot proceed against
// a stable version — the limitation WAL mode lifted in SQLite.
var ErrNoSnapshots = errors.New("db: journal mode does not support snapshot reads")

// ErrBusySnapshot is returned by Checkpoint while read transactions are
// open: truncating the log would invalidate their marks.
var ErrBusySnapshot = errors.New("db: checkpoint blocked by open read transactions")

// ReadTx is a point-in-time read transaction: it sees the database
// exactly as of the moment BeginRead ran, regardless of writes
// committed afterwards — the reader/writer concurrency property of WAL
// (§2: dirty pages are appended to the log, "the original pages remain
// intact in the database file"). Close hands it back to its database,
// whose next BeginRead reuses it: a closed ReadTx must not be used again.
type ReadTx struct {
	d      *DB
	store  snapshotStore
	tables tables
	done   bool
}

// BeginRead opens a read transaction at the current committed state.
// Read transactions may be interleaved with write transactions and
// commits; they block checkpointing until closed. BeginRead never takes
// the writer slot (a writer may open a snapshot mid-transaction), and
// ReadTx methods run concurrently with the writer and with each other —
// the WAL reader/writer property the engine exists to provide. One
// ReadTx must not be shared between goroutines.
func (d *DB) BeginRead() (*ReadTx, error) {
	if d.view == nil {
		return nil, ErrNoSnapshots
	}
	r, _ := d.readers.Get().(*ReadTx)
	if r == nil {
		r = &ReadTx{d: d, store: snapshotStore{MarkStore: pager.MarkStore{View: d.view}}}
	}
	r.store.Mark, r.done = d.nv.Pin(), false
	return r, nil
}

// maxKeptBuilt bounds the built-page table a closed ReadTx keeps for its
// next use: a long reader's table goes, rather than be cleared on every
// later Close.
const maxKeptBuilt = 64

// Close releases the snapshot and hands the ReadTx back for reuse, with
// none of the trees or built pages of this snapshot.
func (r *ReadTx) Close() {
	if r.done {
		return
	}
	r.done = true
	r.d.nv.Unpin(r.store.Mark)
	r.tables = tables{}
	if len(r.store.built) > maxKeptBuilt {
		r.store.built = nil
	} else {
		clear(r.store.built)
	}
	r.d.readers.Put(r)
}

// treeAt opens table's B+tree over store, resolving the root through the
// catalog of cat's page-1 image.
func (d *DB) treeAt(cat, store btree.PageStore, table string) (btree.Tree, error) {
	hdr, err := cat.Get(1)
	if err != nil {
		return btree.Tree{}, err
	}
	tables, err := d.catalog.Parse(hdr)
	if err != nil {
		return btree.Tree{}, err
	}
	root, ok := tables[table]
	if !ok {
		return btree.Tree{}, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return btree.Attach(store, root, btree.Config{Reserved: d.reserved()}), nil
}

// tables holds the trees one transaction has opened. The first is
// embedded, so the usual one-table transaction allocates nothing for it;
// any further ones go in a map made on demand.
type tables struct {
	name  string
	first btree.Tree
	open  bool
	more  map[string]*btree.Tree
}

// tree returns table's tree over store, opening it (root from cat's
// catalog) the first time.
func (ts *tables) tree(d *DB, cat, store btree.PageStore, table string) (*btree.Tree, error) {
	if ts.open && ts.name == table {
		return &ts.first, nil
	}
	if t, ok := ts.more[table]; ok {
		return t, nil
	}
	t, err := d.treeAt(cat, store, table)
	if err != nil {
		return nil, err
	}
	if !ts.open {
		ts.name, ts.first, ts.open = table, t, true
		return &ts.first, nil
	}
	if ts.more == nil {
		ts.more = make(map[string]*btree.Tree)
	}
	p := new(btree.Tree)
	*p = t
	ts.more[table] = p
	return p, nil
}

func (r *ReadTx) tree(table string) (*btree.Tree, error) {
	if r.done {
		return nil, errors.New("db: read transaction closed")
	}
	return r.tables.tree(r.d, &r.store, &r.store, table)
}

// Get reads a record as of the snapshot. The value is a copy the caller
// owns.
func (r *ReadTx) Get(table string, key []byte) ([]byte, bool, error) {
	return r.AppendGet(nil, table, key)
}

// AppendGet is Get appending the value to dst; a missing key or an error
// returns dst as passed.
func (r *ReadTx) AppendGet(dst []byte, table string, key []byte) ([]byte, bool, error) {
	t, err := r.tree(table)
	if err != nil {
		return dst, false, err
	}
	return t.AppendGet(dst, key)
}

// Scan visits the snapshot's records in ascending key order. key and
// value are valid until fn returns; copy them to keep them.
func (r *ReadTx) Scan(table string, fn func(key, value []byte) bool) error {
	t, err := r.tree(table)
	if err != nil {
		return err
	}
	return t.Scan(fn)
}

// ScanRange visits snapshot records with start <= key < end. key and
// value are valid until fn returns; copy them to keep them.
func (r *ReadTx) ScanRange(table string, start, end []byte, fn func(key, value []byte) bool) error {
	t, err := r.tree(table)
	if err != nil {
		return err
	}
	return t.ScanRange(start, end, fn)
}

// Count returns the snapshot's record count for table.
func (r *ReadTx) Count(table string) (int, error) {
	t, err := r.tree(table)
	if err != nil {
		return 0, err
	}
	return t.Count()
}

// snapshotStore is a read-only btree.PageStore over the database as of
// a pinned journal mark (pager.MarkStore). A page the journal hands out
// shared is not kept — asking again costs nothing; one the view had to
// build (replayed, or read from the database file) is, so a long-lived
// reader builds each such page once.
type snapshotStore struct {
	pager.MarkStore
	// built holds the images that were built for this reader. Nil until
	// the first one.
	built map[uint32][]byte
	// overlay holds the frame images of commits enqueued but not yet
	// flushed when an MVCC session took its snapshot: they are not
	// reachable through the journal mark yet, but they ARE committed.
	// Nil for read transactions, which see only flushed commits.
	overlay map[uint32][]byte
}

// load resolves pgno without consulting or feeding built: a caller that
// gets shared=false owns the image.
func (s *snapshotStore) load(pgno uint32) (img []byte, shared bool, err error) {
	if img, ok := s.overlay[pgno]; ok {
		return img, true, nil
	}
	return s.View.PageAt(pgno, s.Mark)
}

func (s *snapshotStore) Get(pgno uint32) ([]byte, error) {
	if img, ok := s.built[pgno]; ok {
		return img, nil
	}
	img, shared, err := s.load(pgno)
	if err != nil {
		return nil, err
	}
	if !shared {
		if s.built == nil {
			s.built = make(map[uint32][]byte)
		}
		s.built[pgno] = img
	}
	return img, nil
}
