package storage_test

import (
	"bytes"
	"testing"

	"neo/internal/storage"
	"neo/internal/wire"
)

// The page layout the tests below corrupt by hand: a 4-byte header (slot
// count, freeEnd) followed by one 4-byte (offset, length) entry per slot.
const (
	headerSize = 4
	slotSize   = 4
)

// fullPage returns the bytes of a page holding testRow tuples until it is
// full.
func fullPage(t testing.TB) []byte {
	ts := testSchema()
	p := storage.NewPage()
	for i := 0; ; i++ {
		tuple, err := storage.EncodeTuple(nil, ts, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Insert(tuple); !ok {
			return bytes.Clone(p.Bytes())
		}
	}
}

// TestPageTupleRejectsSlotInDirectory hand-builds a page whose last slot
// entry points back into the header and slot directory: Tuple must refuse
// it rather than hand the directory's bytes to DecodeTuple as a row.
func TestPageTupleRejectsSlotInDirectory(t *testing.T) {
	buf := fullPage(t)
	p, err := storage.PageFromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	last := p.NumSlots() - 1
	good, err := p.Tuple(last)
	if err != nil {
		t.Fatal(err)
	}
	entry := buf[headerSize+slotSize*last:]
	wire.PutU16(entry, headerSize) // the first slot entry onwards
	wire.PutU16(entry[2:], uint16(len(good)))
	if data, err := p.Tuple(last); err == nil {
		t.Fatalf("Tuple returned %d bytes of the slot directory, want an error", len(data))
	}
	if _, err := p.Tuple(0); err != nil {
		t.Fatalf("an intact slot is rejected: %v", err)
	}
}

// FuzzPage feeds arbitrary page bytes through the read path a heap scan
// takes — PageFromBytes, Tuple on every slot, DecodeTuple against the table
// schema — which must never panic, and requires every tuple Tuple returns to
// lie inside the data region, past the slot directory.
func FuzzPage(f *testing.F) {
	ts := testSchema()
	full := fullPage(f)
	f.Add(full)
	f.Add(bytes.Clone(storage.NewPage().Bytes()))
	into := bytes.Clone(full)
	wire.PutU16(into[headerSize:], 0) // slot 0 points at the header
	f.Add(into)
	past := bytes.Clone(full)
	wire.PutU16(past[headerSize+2:], storage.PageSize) // slot 0 runs off the page
	f.Add(past)

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < storage.PageSize {
			b = append(b, make([]byte, storage.PageSize-len(b))...)
		}
		p, err := storage.PageFromBytes(b[:storage.PageSize:storage.PageSize])
		if err != nil {
			return
		}
		dirEnd := headerSize + slotSize*p.NumSlots()
		var vals []storage.Value
		for slot := 0; slot < p.NumSlots(); slot++ {
			data, err := p.Tuple(slot)
			if err != nil {
				continue
			}
			// data is a view into the page ending at most at its end, so its
			// capacity gives away where it starts.
			off := storage.PageSize - cap(data)
			if off < dirEnd || off+len(data) > storage.PageSize {
				t.Fatalf("slot %d: Tuple returned page bytes [%d,%d), outside the data region [%d,%d)",
					slot, off, off+len(data), dirEnd, storage.PageSize)
			}
			vals, _ = storage.DecodeTuple(data, ts, vals)
		}
	})
}
