package storage_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"neo/internal/datagen"
	"neo/internal/schema"
	"neo/internal/storage"
)

func testSchema() *schema.Table {
	return &schema.Table{
		Name:       "t",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.IntType},
			{Name: "name", Type: schema.StringType},
			{Name: "score", Type: schema.IntType},
		},
	}
}

func testRow(i int) []storage.Value {
	return []storage.Value{
		storage.IntValue(int64(i)),
		storage.StringValue(fmt.Sprintf("name-%d", i)),
		storage.IntValue(int64(i * 7)),
	}
}

func TestPageInsertAndReadBack(t *testing.T) {
	ts := testSchema()
	p := storage.NewPage()
	var tuples [][]storage.Value
	for i := 0; ; i++ {
		tuple, err := storage.EncodeTuple(nil, ts, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		slot, ok := p.Insert(tuple)
		if !ok {
			break // page full
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
		tuples = append(tuples, testRow(i))
	}
	if len(tuples) < 100 {
		t.Fatalf("only %d tuples fit in a page, expected hundreds", len(tuples))
	}
	if p.NumSlots() != len(tuples) {
		t.Fatalf("NumSlots = %d, want %d", p.NumSlots(), len(tuples))
	}
	// Round-trip through raw bytes, as the heap file read path does.
	copied := make([]byte, storage.PageSize)
	copy(copied, p.Bytes())
	q, err := storage.PageFromBytes(copied)
	if err != nil {
		t.Fatal(err)
	}
	var vals []storage.Value
	for slot := 0; slot < q.NumSlots(); slot++ {
		data, err := q.Tuple(slot)
		if err != nil {
			t.Fatal(err)
		}
		vals, err = storage.DecodeTuple(data, ts, vals)
		if err != nil {
			t.Fatal(err)
		}
		for c, want := range tuples[slot] {
			if !vals[c].Equal(want) {
				t.Fatalf("slot %d col %d = %v, want %v", slot, c, vals[c], want)
			}
		}
	}
}

func TestEncodeTupleRejectsKindMismatch(t *testing.T) {
	ts := testSchema()
	_, err := storage.EncodeTuple(nil, ts, []storage.Value{
		storage.StringValue("not-an-int"), storage.StringValue("x"), storage.IntValue(1),
	})
	if err == nil {
		t.Fatal("EncodeTuple accepted a string value for an int column")
	}
}

func TestHeapFileRoundTrip(t *testing.T) {
	ts := testSchema()
	path := filepath.Join(t.TempDir(), "t.heap")
	w, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // enough rows to span multiple pages
	var lastRID storage.RID
	for i := 0; i < n; i++ {
		tuple, err := storage.EncodeTuple(nil, ts, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		lastRID, err = w.Append(tuple)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if lastRID.Page == 0 {
		t.Fatalf("expected %d rows to span multiple pages, last RID = %+v", n, lastRID)
	}

	hf, err := storage.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	if hf.NumPages() != lastRID.Page+1 {
		t.Fatalf("NumPages = %d, want %d", hf.NumPages(), lastRID.Page+1)
	}
	var (
		row  int
		vals []storage.Value
	)
	for pageNo := int32(0); pageNo < hf.NumPages(); pageNo++ {
		page, err := hf.ReadPage(pageNo)
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < page.NumSlots(); slot++ {
			data, err := page.Tuple(slot)
			if err != nil {
				t.Fatal(err)
			}
			vals, err = storage.DecodeTuple(data, ts, vals)
			if err != nil {
				t.Fatal(err)
			}
			for c, want := range testRow(row) {
				if !vals[c].Equal(want) {
					t.Fatalf("row %d col %d = %v, want %v", row, c, vals[c], want)
				}
			}
			row++
		}
	}
	if row != n {
		t.Fatalf("scanned %d rows, want %d", row, n)
	}
}

func TestBufferPoolHitMissEviction(t *testing.T) {
	ts := testSchema()
	path := filepath.Join(t.TempDir(), "t.heap")
	w, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tuple, err := storage.EncodeTuple(nil, ts, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(tuple); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hf, err := storage.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	nPages := int(hf.NumPages())
	if nPages < 4 {
		t.Fatalf("need at least 4 pages, got %d", nPages)
	}

	// Pool smaller than the file: a full scan misses on every page, and a
	// second full scan cannot be served from cache either.
	cold := storage.NewBufferPool(2)
	for pass := 0; pass < 2; pass++ {
		for pageNo := int32(0); pageNo < hf.NumPages(); pageNo++ {
			if _, err := cold.Get(hf, pageNo); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := cold.Stats()
	if cs.Misses != int64(2*nPages) {
		t.Fatalf("cold pool misses = %d, want %d", cs.Misses, 2*nPages)
	}
	if cs.Evictions == 0 {
		t.Fatal("cold pool recorded no evictions")
	}
	if cs.BytesRead != cs.Misses*storage.PageSize {
		t.Fatalf("bytes read = %d, want %d", cs.BytesRead, cs.Misses*storage.PageSize)
	}

	// Pool larger than the file: second scan is all hits.
	hot := storage.NewBufferPool(nPages + 8)
	for pass := 0; pass < 2; pass++ {
		for pageNo := int32(0); pageNo < hf.NumPages(); pageNo++ {
			if _, err := hot.Get(hf, pageNo); err != nil {
				t.Fatal(err)
			}
		}
	}
	hs := hot.Stats()
	if hs.Misses != int64(nPages) || hs.Hits != int64(nPages) {
		t.Fatalf("hot pool hits/misses = %d/%d, want %d/%d", hs.Hits, hs.Misses, nPages, nPages)
	}
	if hs.Evictions != 0 {
		t.Fatalf("hot pool evicted %d pages with spare capacity", hs.Evictions)
	}
	if hs.HitRate != 0.5 {
		t.Fatalf("hot pool hit rate = %v, want 0.5", hs.HitRate)
	}

	hot.Reset()
	if s := hot.Stats(); s.Hits != 0 || s.Misses != 0 || s.ResidentPages != 0 {
		t.Fatalf("Reset left counters: %+v", s)
	}
	// After a reset the same scan misses again (cold cache).
	if _, err := hot.Get(hf, 0); err != nil {
		t.Fatal(err)
	}
	if s := hot.Stats(); s.Misses != 1 {
		t.Fatalf("post-reset misses = %d, want 1", s.Misses)
	}
}

func TestMaterializeOpenDiskParity(t *testing.T) {
	mem, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Materialize(mem, dir); err != nil {
		t.Fatal(err)
	}
	if !storage.MaterializedAt(dir, mem.Catalog) {
		t.Fatal("MaterializedAt = false after Materialize")
	}

	disk, err := storage.OpenDisk(dir, mem.Catalog, storage.PagesForMB(4))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.VerifyAgainst(mem); err != nil {
		t.Fatal(err)
	}
	if disk.TotalRows() != mem.TotalRows() {
		t.Fatalf("disk rows = %d, mem rows = %d", disk.TotalRows(), mem.TotalRows())
	}

	// Every tuple on disk must decode to exactly the in-memory row, in the
	// same order (the heap preserves append order).
	for _, ts := range mem.Catalog.Tables() {
		dt := disk.Table(ts.Name)
		mt := mem.Table(ts.Name)
		var (
			row  int
			vals []storage.Value
		)
		for pageNo := int32(0); pageNo < dt.Heap.NumPages(); pageNo++ {
			page, err := disk.Pool.Get(dt.Heap, pageNo)
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < page.NumSlots(); slot++ {
				data, err := page.Tuple(slot)
				if err != nil {
					t.Fatal(err)
				}
				vals, err = storage.DecodeTuple(data, ts, vals)
				if err != nil {
					t.Fatal(err)
				}
				for c, col := range ts.Columns {
					want, err := mt.Value(col.Name, row)
					if err != nil {
						t.Fatal(err)
					}
					if !vals[c].Equal(want) {
						t.Fatalf("%s row %d col %s: disk %v, mem %v", ts.Name, row, col.Name, vals[c], want)
					}
				}
				row++
			}
		}
		if row != mt.NumRows() {
			t.Fatalf("%s: scanned %d rows, want %d", ts.Name, row, mt.NumRows())
		}
	}

	// RID indexes exist on the same columns as in-memory hash indexes and
	// agree on per-key match counts and pointed-to values.
	for _, ts := range mem.Catalog.Tables() {
		dt, mt := disk.Table(ts.Name), mem.Table(ts.Name)
		for _, col := range ts.Columns {
			hix, rix := mt.Index(col.Name), dt.Index(col.Name)
			if (hix == nil) != (rix == nil) {
				t.Fatalf("%s.%s: index presence disk=%v mem=%v", ts.Name, col.Name, rix != nil, hix != nil)
			}
			if hix == nil {
				continue
			}
			if storage.DistinctKeys(hix) != storage.DistinctKeys(rix) {
				t.Fatalf("%s.%s: distinct keys disk=%d mem=%d", ts.Name, col.Name, storage.DistinctKeys(rix), storage.DistinctKeys(hix))
			}
			// Probe every distinct value occurring in the column.
			colPos := ts.ColumnIndex(col.Name)
			seen := map[string]bool{}
			for row := 0; row < mt.NumRows(); row++ {
				v, err := mt.Value(col.Name, row)
				if err != nil {
					t.Fatal(err)
				}
				key := v.String()
				if seen[key] {
					continue
				}
				seen[key] = true
				rids := rix.Lookup(v)
				if len(rids) != len(hix.Lookup(v)) {
					t.Fatalf("%s.%s = %v: disk index %d matches, mem index %d",
						ts.Name, col.Name, v, len(rids), len(hix.Lookup(v)))
				}
				// Spot-check the first RID really points at a matching tuple.
				page, err := disk.Pool.Get(dt.Heap, rids[0].Page)
				if err != nil {
					t.Fatal(err)
				}
				data, err := page.Tuple(int(rids[0].Slot))
				if err != nil {
					t.Fatal(err)
				}
				var got []storage.Value
				got, err = storage.DecodeTuple(data, ts, got)
				if err != nil {
					t.Fatal(err)
				}
				if !got[colPos].Equal(v) {
					t.Fatalf("%s.%s: RID %+v holds %v, want %v", ts.Name, col.Name, rids[0], got[colPos], v)
				}
			}
		}
	}
}

func TestOpenDiskRejectsMissingFiles(t *testing.T) {
	mem, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if storage.MaterializedAt(dir, mem.Catalog) {
		t.Fatal("MaterializedAt = true on an empty directory")
	}
	if _, err := storage.OpenDisk(dir, mem.Catalog, 16); err == nil {
		t.Fatal("OpenDisk succeeded on an empty directory")
	}
}

func TestVerifyAgainstDetectsStaleFiles(t *testing.T) {
	big, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	small, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Materialize(big, dir); err != nil {
		t.Fatal(err)
	}
	disk, err := storage.OpenDisk(dir, big.Catalog, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.VerifyAgainst(small); err == nil {
		t.Fatal("VerifyAgainst accepted heap files from a different scale")
	}
}
