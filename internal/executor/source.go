package executor

import (
	"slices"

	"neo/internal/schema"
	"neo/internal/storage"
)

// rowSource is how the operators read one base table. Rows are addressed by
// int32 handles that are only meaningful to the source that issued them.
type rowSource interface {
	schema() *schema.Table
	numRows() int
	// each visits every row in storage order, which is primary-key order.
	// The handle stays valid after the call only if keep returned true.
	each(keep func(h int32) bool) error
	// lookup returns a probe over the storage index on column, or nil when
	// the column has none. probe(v, keep) visits, in storage order, the rows
	// whose column equals v, under the same contract as each.
	lookup(column string) func(v storage.Value, keep func(h int32) bool) error
	// value reads column position col of the row behind a valid handle.
	value(h int32, col int) storage.Value
}

// memRows reads a table of the in-memory column store; a handle is a row id.
type memRows struct{ t *storage.Table }

func (m memRows) schema() *schema.Table { return m.t.Schema }
func (m memRows) numRows() int          { return m.t.NumRows() }

func (m memRows) each(keep func(h int32) bool) error {
	for row := 0; row < m.t.NumRows(); row++ {
		keep(int32(row))
	}
	return nil
}

func (m memRows) lookup(column string) func(storage.Value, func(int32) bool) error {
	ix := m.t.Index(column)
	if ix == nil {
		return nil
	}
	return func(v storage.Value, keep func(h int32) bool) error {
		for _, row := range ix.Lookup(v) {
			keep(row)
		}
		return nil
	}
}

func (m memRows) value(h int32, col int) storage.Value {
	return m.t.Columns[col].Value(int(h))
}

// heapRows reads a heap file through the buffer pool. It lives for one
// execution: every tuple an operator keeps is decoded once into arena, and a
// handle is the tuple's position there, so kept rows stay readable after
// their page is evicted. A tuple the operator rejects leaves the arena as it
// was, and the next decode overwrites it.
type heapRows struct {
	pool  *storage.BufferPool
	t     *storage.DiskTable
	arena []storage.Value // len(t.Schema.Columns) values per kept tuple
}

func (s *heapRows) schema() *schema.Table { return s.t.Schema }
func (s *heapRows) numRows() int          { return s.t.NumRows() }

func (s *heapRows) each(keep func(h int32) bool) error {
	for pg := int32(0); pg < s.t.Heap.NumPages(); pg++ {
		page, err := s.pool.Get(s.t.Heap, pg)
		if err != nil {
			return err
		}
		for slot := 0; slot < page.NumSlots(); slot++ {
			if err := s.offer(page, slot, keep); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *heapRows) lookup(column string) func(storage.Value, func(int32) bool) error {
	ix := s.t.Index(column)
	if ix == nil {
		return nil
	}
	return func(v storage.Value, keep func(h int32) bool) error {
		for _, rid := range ix.Lookup(v) {
			page, err := s.pool.Get(s.t.Heap, rid.Page)
			if err != nil {
				return err
			}
			if err := s.offer(page, int(rid.Slot), keep); err != nil {
				return err
			}
		}
		return nil
	}
}

// offer decodes one tuple at the end of the arena and keeps it there only if
// keep accepts its handle.
func (s *heapRows) offer(page *storage.Page, slot int, keep func(h int32) bool) error {
	data, err := page.Tuple(slot)
	if err != nil {
		return err
	}
	width := len(s.t.Schema.Columns)
	n := len(s.arena)
	s.arena = slices.Grow(s.arena, width)
	if _, err := storage.DecodeTuple(data, s.t.Schema, s.arena[n:]); err != nil {
		return err
	}
	s.arena = s.arena[:n+width]
	if !keep(int32(n / width)) {
		s.arena = s.arena[:n]
	}
	return nil
}

func (s *heapRows) value(h int32, col int) storage.Value {
	return s.arena[int(h)*len(s.t.Schema.Columns)+col]
}
