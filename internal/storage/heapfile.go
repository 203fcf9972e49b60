package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// HeapFileName returns the on-disk file name for a table's heap file.
func HeapFileName(dir, table string) string {
	return filepath.Join(dir, table+".heap")
}

// HeapFile is a read-only handle on one table's slotted-page heap file. All
// reads go through ReadPage (positional reads, safe for concurrent use); the
// buffer pool sits on top and decides which pages stay resident.
type HeapFile struct {
	f        *os.File
	path     string
	numPages int32
}

// OpenHeapFile opens an existing heap file for reading.
func OpenHeapFile(path string) (*HeapFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: heap file %s is %d bytes, not a multiple of the %d-byte page size", path, info.Size(), PageSize)
	}
	return &HeapFile{f: f, path: path, numPages: int32(info.Size() / PageSize)}, nil
}

// NumPages returns the number of pages in the file.
func (h *HeapFile) NumPages() int32 { return h.numPages }

// ReadPage reads page pageNo into a freshly validated Page. Safe for
// concurrent use (positional read, no shared file offset).
func (h *HeapFile) ReadPage(pageNo int32) (*Page, error) {
	if pageNo < 0 || pageNo >= h.numPages {
		return nil, fmt.Errorf("storage: heap %s: page %d out of range [0,%d)", h.path, pageNo, h.numPages)
	}
	buf := make([]byte, PageSize)
	if _, err := h.f.ReadAt(buf, int64(pageNo)*PageSize); err != nil {
		return nil, fmt.Errorf("storage: heap %s page %d: %w", h.path, pageNo, err)
	}
	p, err := PageFromBytes(buf)
	if err != nil {
		return nil, fmt.Errorf("storage: heap %s page %d: %w", h.path, pageNo, err)
	}
	return p, nil
}

// Close releases the underlying file handle.
func (h *HeapFile) Close() error { return h.f.Close() }

// HeapWriter bulk-creates a heap file by appending tuples in order. Tuples
// keep their append order on disk, so row i of the source table lands at a
// RID that scans back in the same order — the disk executor relies on this
// to preserve the clustered (primary-key) ordering the data generators emit.
type HeapWriter struct {
	f       *os.File
	page    *Page
	pageNo  int32
	written int64
}

// CreateHeapFile creates (truncating) a heap file for writing.
func CreateHeapFile(path string) (*HeapWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &HeapWriter{f: f, page: NewPage()}, nil
}

// Append adds one encoded tuple, starting a new page when the current one is
// full, and returns the tuple's RID.
func (w *HeapWriter) Append(tuple []byte) (RID, error) {
	if slot, ok := w.page.Insert(tuple); ok {
		return RID{Page: w.pageNo, Slot: int32(slot)}, nil
	}
	if err := w.flushPage(); err != nil {
		return RID{}, err
	}
	slot, ok := w.page.Insert(tuple)
	if !ok {
		return RID{}, fmt.Errorf("storage: tuple of %d bytes does not fit in an empty %d-byte page", len(tuple), PageSize)
	}
	return RID{Page: w.pageNo, Slot: int32(slot)}, nil
}

func (w *HeapWriter) flushPage() error {
	if _, err := w.f.Write(w.page.Bytes()); err != nil {
		return err
	}
	w.written += PageSize
	w.pageNo++
	w.page = NewPage()
	return nil
}

// Close flushes the final partial page and closes the file.
func (w *HeapWriter) Close() error {
	if w.page.NumSlots() > 0 {
		if err := w.flushPage(); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
