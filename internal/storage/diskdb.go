package storage

import (
	"fmt"
	"os"

	"neo/internal/schema"
)

// DiskTable is one relation stored as a heap file plus its RID indexes.
type DiskTable struct {
	Schema  *schema.Table
	Heap    *HeapFile
	indexes map[string]*Index[RID]
	rows    int
}

// NumRows returns the number of tuples in the table (counted at index-build
// time).
func (t *DiskTable) NumRows() int { return t.rows }

// Index returns the RID index on the named column, or nil if none exists.
func (t *DiskTable) Index(column string) *Index[RID] { return t.indexes[column] }

// DiskDB is a database materialized as heap files on disk, read through a
// shared buffer pool. Files are immutable once materialized; all query
// execution is read-only.
type DiskDB struct {
	Catalog *schema.Catalog
	Pool    *BufferPool
	Dir     string
	tables  map[string]*DiskTable
}

// Table returns the disk table with the given name, or nil.
func (db *DiskDB) Table(name string) *DiskTable { return db.tables[name] }

// TotalRows returns the total number of tuples across all tables.
func (db *DiskDB) TotalRows() int {
	total := 0
	for _, t := range db.tables {
		total += t.rows
	}
	return total
}

// Close releases every heap file handle.
func (db *DiskDB) Close() error {
	var first error
	for _, t := range db.tables {
		if err := t.Heap.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Materialize writes every table of an in-memory database to dir as slotted
// heap files, one <table>.heap per relation, tuples in row order (the
// generators emit rows in primary-key order, so the heap keeps the clustered
// ordering the executor's sortedness tracking assumes). Existing heap files
// are overwritten.
func Materialize(db *Database, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ts := range db.Catalog.Tables() {
		t := db.Table(ts.Name)
		if t == nil {
			return fmt.Errorf("storage: materialize: no stored table %q", ts.Name)
		}
		w, err := CreateHeapFile(HeapFileName(dir, ts.Name))
		if err != nil {
			return err
		}
		var (
			tuple []byte
			vals  = make([]Value, 0, len(ts.Columns))
		)
		for row := 0; row < t.NumRows(); row++ {
			vals = vals[:0]
			for _, c := range t.Columns {
				vals = append(vals, c.Value(row))
			}
			tuple, err = EncodeTuple(tuple[:0], ts, vals)
			if err != nil {
				w.Close()
				return err
			}
			if _, err := w.Append(tuple); err != nil {
				w.Close()
				return fmt.Errorf("storage: materialize %q: %w", ts.Name, err)
			}
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("storage: materialize %q: %w", ts.Name, err)
		}
	}
	return nil
}

// MaterializedAt reports whether dir already holds a heap file for every
// table in the catalog.
func MaterializedAt(dir string, cat *schema.Catalog) bool {
	for _, ts := range cat.Tables() {
		info, err := os.Stat(HeapFileName(dir, ts.Name))
		if err != nil || info.IsDir() {
			return false
		}
	}
	return true
}

// OpenDisk opens the heap files for every catalog table under dir, attaches
// a buffer pool of poolPages pages, and builds the RID indexes (the same
// columns as Database.BuildIndexes). The index build doubles as a
// full-scan validation pass: every tuple is decoded once, so torn or
// mis-encoded heap files fail here rather than mid-query.
func OpenDisk(dir string, cat *schema.Catalog, poolPages int) (*DiskDB, error) {
	db := &DiskDB{
		Catalog: cat,
		Pool:    NewBufferPool(poolPages),
		Dir:     dir,
		tables:  make(map[string]*DiskTable, cat.NumRelations()),
	}
	for _, ts := range cat.Tables() {
		hf, err := OpenHeapFile(HeapFileName(dir, ts.Name))
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("storage: open disk db: %w (run neo-datagen -out %s to materialize)", err, dir)
		}
		db.tables[ts.Name] = &DiskTable{Schema: ts, Heap: hf, indexes: make(map[string]*Index[RID])}
	}
	if err := db.buildIndexes(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// OpenMaterialized opens db's on-disk copy under dir through a buffer pool
// of poolMB MiB (16 when poolMB <= 0); an empty dir means a fresh temporary
// directory. Heap files already under dir are reused when they match db;
// missing or mismatched ones — a dir left over from another scale or seed —
// are materialized in place.
func OpenMaterialized(db *Database, dir string, poolMB int) (*DiskDB, error) {
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "neo-disk-"); err != nil {
			return nil, fmt.Errorf("storage: creating disk data dir: %w", err)
		}
	}
	if poolMB <= 0 {
		poolMB = 16
	}
	materialize := !MaterializedAt(dir, db.Catalog)
	for attempt := 0; ; attempt++ {
		if materialize {
			if err := Materialize(db, dir); err != nil {
				return nil, err
			}
		}
		ddb, err := OpenDisk(dir, db.Catalog, PagesForMB(poolMB))
		if err != nil {
			return nil, err
		}
		if err := ddb.VerifyAgainst(db); err != nil {
			ddb.Close()
			if attempt == 0 {
				materialize = true
				continue
			}
			return nil, err
		}
		return ddb, nil
	}
}

// buildIndexes scans each table once through the buffer pool, counting rows
// and populating every RID index the catalog lists for it.
func (db *DiskDB) buildIndexes() error {
	for _, ts := range db.Catalog.Tables() {
		t := db.tables[ts.Name]
		cols := db.Catalog.StorageIndexColumns(ts.Name)
		colPos := make([]int, len(cols))
		for i, c := range cols {
			pos := ts.ColumnIndex(c)
			if pos < 0 {
				return fmt.Errorf("storage: cannot index unknown column %q.%q", ts.Name, c)
			}
			colPos[i] = pos
			t.indexes[c] = newIndex[RID](ts.Columns[pos].Type)
		}

		var vals []Value
		for pageNo := int32(0); pageNo < t.Heap.NumPages(); pageNo++ {
			page, err := db.Pool.Get(t.Heap, pageNo)
			if err != nil {
				return err
			}
			for slot := 0; slot < page.NumSlots(); slot++ {
				data, err := page.Tuple(slot)
				if err != nil {
					return err
				}
				vals, err = DecodeTuple(data, ts, vals)
				if err != nil {
					return err
				}
				rid := RID{Page: pageNo, Slot: int32(slot)}
				for i, c := range cols {
					t.indexes[c].add(vals[colPos[i]], rid)
				}
				t.rows++
			}
		}
	}
	return nil
}

// VerifyAgainst checks that the disk database holds exactly as many rows per
// table as the in-memory database it should mirror. pkg/neo calls it after
// opening a pre-materialized directory, catching stale heap files left over
// from a different -scale or -seed.
func (db *DiskDB) VerifyAgainst(mem *Database) error {
	for _, ts := range db.Catalog.Tables() {
		got, want := db.tables[ts.Name].rows, mem.Table(ts.Name).NumRows()
		if got != want {
			return fmt.Errorf("storage: disk table %q has %d rows, generator produced %d — stale heap files in %s? re-run neo-datagen -out",
				ts.Name, got, want, db.Dir)
		}
	}
	return nil
}
