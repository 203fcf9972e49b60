// Slotted heap pages: the on-disk unit of the disk-backed execution engine.
//
// A page is a fixed-size byte buffer with a 4-byte header, a slot directory
// growing down from the header and tuple data growing up from the end:
//
//	[ nslots u16 | freeEnd u16 | slot0 off,len | slot1 off,len | ... free ... | tupN | ... | tup1 | tup0 ]
//
// freeEnd is the offset of the lowest used tuple byte; the free region is
// [4+4*nslots, freeEnd). Tuples are encoded little-endian via internal/wire:
// int64 columns as 8 fixed bytes, string columns length-prefixed with a u16.
// All encoding is position-based against the table schema, so a tuple costs
// no per-field tags and decoding is a single forward pass.
package storage

import (
	"fmt"

	"neo/internal/schema"
	"neo/internal/wire"
)

// PageSize is the fixed size of one heap page in bytes.
const PageSize = 8192

// pageHeaderSize is the fixed page header: slot count and freeEnd offset.
const pageHeaderSize = 4

// slotEntrySize is one slot-directory entry: tuple offset and length.
const slotEntrySize = 4

// RID identifies a tuple by page number and slot within its heap file.
type RID struct {
	Page int32
	Slot int32
}

// Page is one slotted heap page. The zero value is not valid; use NewPage
// for an empty page or wrap raw file bytes with PageFromBytes.
type Page struct {
	buf []byte
}

// NewPage returns an empty page.
func NewPage() *Page {
	p := &Page{buf: make([]byte, PageSize)}
	wire.PutU16(p.buf[2:], PageSize) // freeEnd: all of the data region is free
	return p
}

// PageFromBytes wraps one page worth of file bytes (no copy). The buffer
// must be exactly PageSize long.
func PageFromBytes(b []byte) (*Page, error) {
	if len(b) != PageSize {
		return nil, fmt.Errorf("storage: page buffer is %d bytes, want %d", len(b), PageSize)
	}
	p := &Page{buf: b}
	if int(p.freeEnd()) > PageSize || int(pageHeaderSize+slotEntrySize*p.NumSlots()) > int(p.freeEnd()) {
		return nil, fmt.Errorf("storage: corrupt page header (nslots=%d freeEnd=%d)", p.NumSlots(), p.freeEnd())
	}
	return p, nil
}

// Bytes returns the page's backing buffer (for writing to disk).
func (p *Page) Bytes() []byte { return p.buf }

// NumSlots returns the number of tuples stored in the page.
func (p *Page) NumSlots() int { return int(wire.U16(p.buf)) }

func (p *Page) freeEnd() uint16 { return wire.U16(p.buf[2:]) }

// FreeBytes returns how many payload bytes (tuple + slot entry) still fit.
func (p *Page) FreeBytes() int {
	free := int(p.freeEnd()) - (pageHeaderSize + slotEntrySize*p.NumSlots())
	if free < slotEntrySize {
		return 0
	}
	return free - slotEntrySize
}

// Insert appends one encoded tuple and returns its slot number; ok is false
// when the page lacks space.
func (p *Page) Insert(tuple []byte) (slot int, ok bool) {
	if len(tuple) > p.FreeBytes() {
		return 0, false
	}
	n := p.NumSlots()
	off := int(p.freeEnd()) - len(tuple)
	copy(p.buf[off:], tuple)
	entry := p.buf[pageHeaderSize+slotEntrySize*n:]
	wire.PutU16(entry, uint16(off))
	wire.PutU16(entry[2:], uint16(len(tuple)))
	wire.PutU16(p.buf, uint16(n+1))
	wire.PutU16(p.buf[2:], uint16(off))
	return n, true
}

// Tuple returns the encoded bytes of the tuple in the given slot (a view
// into the page, valid as long as the page is). A slot entry whose bytes
// would overlap the header or slot directory, or run off the page, is
// corrupt.
func (p *Page) Tuple(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.NumSlots())
	}
	entry := p.buf[pageHeaderSize+slotEntrySize*slot:]
	off, ln := int(wire.U16(entry)), int(wire.U16(entry[2:]))
	if off < pageHeaderSize+slotEntrySize*p.NumSlots() || off+ln > PageSize {
		return nil, fmt.Errorf("storage: corrupt slot %d (off=%d len=%d)", slot, off, ln)
	}
	return p.buf[off : off+ln], nil
}

// EncodeTuple appends the encoded form of one row (values in schema column
// order) to buf and returns the extended slice.
func EncodeTuple(buf []byte, ts *schema.Table, vals []Value) ([]byte, error) {
	if len(vals) != len(ts.Columns) {
		return nil, fmt.Errorf("storage: table %q expects %d values, got %d", ts.Name, len(ts.Columns), len(vals))
	}
	for i, col := range ts.Columns {
		v := vals[i]
		if v.Kind != col.Type {
			return nil, fmt.Errorf("storage: table %q column %q: cannot encode %v value into %v column",
				ts.Name, col.Name, v.Kind, col.Type)
		}
		switch col.Type {
		case schema.IntType:
			var b [8]byte
			wire.PutI64(b[:], v.Int)
			buf = append(buf, b[:]...)
		default: // StringType
			if len(v.Str) > int(^uint16(0)) {
				return nil, fmt.Errorf("storage: table %q column %q: string of %d bytes exceeds tuple limit",
					ts.Name, col.Name, len(v.Str))
			}
			var b [2]byte
			wire.PutU16(b[:], uint16(len(v.Str)))
			buf = append(buf, b[:]...)
			buf = append(buf, v.Str...)
		}
	}
	return buf, nil
}

// DecodeTuple decodes one encoded tuple into dst (reused when cap allows)
// following the table schema. Returned values alias nothing in data except
// through Go string copies, so they stay valid after the page is evicted.
func DecodeTuple(data []byte, ts *schema.Table, dst []Value) ([]Value, error) {
	dst = dst[:0]
	off := 0
	for _, col := range ts.Columns {
		switch col.Type {
		case schema.IntType:
			if off+8 > len(data) {
				return nil, fmt.Errorf("storage: table %q: truncated int column %q", ts.Name, col.Name)
			}
			dst = append(dst, Value{Kind: schema.IntType, Int: wire.I64(data[off:])})
			off += 8
		default: // StringType
			if off+2 > len(data) {
				return nil, fmt.Errorf("storage: table %q: truncated string length for column %q", ts.Name, col.Name)
			}
			n := int(wire.U16(data[off:]))
			off += 2
			if off+n > len(data) {
				return nil, fmt.Errorf("storage: table %q: truncated string column %q", ts.Name, col.Name)
			}
			dst = append(dst, Value{Kind: schema.StringType, Str: string(data[off : off+n])})
			off += n
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("storage: table %q: %d trailing tuple bytes", ts.Name, len(data)-off)
	}
	return dst, nil
}
