// Package storage implements the in-memory column store that backs the
// simulated execution engines. Each table stores its columns as typed
// slices; secondary hash indexes can be built on any column and are used by
// the executor for index scans and index-nested-loop joins.
package storage

import (
	"fmt"

	"neo/internal/schema"
)

// Value is a single cell value. Exactly one of the fields is meaningful,
// selected by Kind.
type Value struct {
	Kind schema.ColType
	Int  int64
	Str  string
}

// IntValue constructs an integer Value.
func IntValue(v int64) Value { return Value{Kind: schema.IntType, Int: v} }

// StringValue constructs a string Value.
func StringValue(v string) Value { return Value{Kind: schema.StringType, Str: v} }

// Less reports whether v sorts before other. Values of different kinds
// compare by kind (ints before strings) so sorting mixed slices is total.
func (v Value) Less(other Value) bool {
	if v.Kind != other.Kind {
		return v.Kind < other.Kind
	}
	if v.Kind == schema.IntType {
		return v.Int < other.Int
	}
	return v.Str < other.Str
}

// Equal reports whether two values are identical.
func (v Value) Equal(other Value) bool {
	return v.Kind == other.Kind && v.Int == other.Int && v.Str == other.Str
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.Kind == schema.IntType {
		return fmt.Sprintf("%d", v.Int)
	}
	return v.Str
}

// Column is a typed column of values.
type Column struct {
	Type schema.ColType
	Ints []int64
	Strs []string
}

// Len returns the number of rows stored in the column.
func (c *Column) Len() int {
	if c.Type == schema.IntType {
		return len(c.Ints)
	}
	return len(c.Strs)
}

// Value returns the value at row i.
func (c *Column) Value(i int) Value {
	if c.Type == schema.IntType {
		return Value{Kind: schema.IntType, Int: c.Ints[i]}
	}
	return Value{Kind: schema.StringType, Str: c.Strs[i]}
}

// Append appends a value to the column. The value kind must match the column
// type.
func (c *Column) Append(v Value) error {
	if v.Kind != c.Type {
		return fmt.Errorf("storage: cannot append %v value to %v column", v.Kind, c.Type)
	}
	if c.Type == schema.IntType {
		c.Ints = append(c.Ints, v.Int)
	} else {
		c.Strs = append(c.Strs, v.Str)
	}
	return nil
}

// Index is a posting-list hash index: it maps a column value to the
// references of the rows holding it, in storage order. R is the row reference
// of the store the index covers — a row id (int32) in the column store, a
// RID in a heap file.
type Index[R any] struct {
	ints map[int64][]R
	strs map[string][]R
}

func newIndex[R any](typ schema.ColType) *Index[R] {
	if typ == schema.IntType {
		return &Index[R]{ints: make(map[int64][]R)}
	}
	return &Index[R]{strs: make(map[string][]R)}
}

func (ix *Index[R]) add(v Value, ref R) {
	if v.Kind == schema.IntType {
		ix.ints[v.Int] = append(ix.ints[v.Int], ref)
	} else {
		ix.strs[v.Str] = append(ix.strs[v.Str], ref)
	}
}

// Lookup returns the references of the rows whose indexed column equals v.
func (ix *Index[R]) Lookup(v Value) []R {
	if v.Kind == schema.IntType {
		return ix.ints[v.Int]
	}
	return ix.strs[v.Str]
}

// Table is the stored form of one relation.
type Table struct {
	Schema  *schema.Table
	Columns []*Column
	colIdx  map[string]int
	indexes map[string]*Index[int32]
	rows    int
}

// NewTable creates an empty stored table for the given schema.
func NewTable(ts *schema.Table) *Table {
	t := &Table{
		Schema:  ts,
		colIdx:  make(map[string]int, len(ts.Columns)),
		indexes: make(map[string]*Index[int32]),
	}
	for i, c := range ts.Columns {
		t.Columns = append(t.Columns, &Column{Type: c.Type})
		t.colIdx[c.Name] = i
	}
	return t
}

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int { return t.rows }

// Column returns the stored column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	i, ok := t.colIdx[name]
	if !ok {
		return nil
	}
	return t.Columns[i]
}

// AppendRow appends one row; values must be given in schema column order.
func (t *Table) AppendRow(values ...Value) error {
	if len(values) != len(t.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d", t.Schema.Name, len(t.Columns), len(values))
	}
	for i, v := range values {
		if err := t.Columns[i].Append(v); err != nil {
			return fmt.Errorf("storage: table %q column %q: %w", t.Schema.Name, t.Schema.Columns[i].Name, err)
		}
	}
	t.rows++
	return nil
}

// Value returns the value in the named column at the given row.
func (t *Table) Value(column string, row int) (Value, error) {
	c := t.Column(column)
	if c == nil {
		return Value{}, fmt.Errorf("storage: table %q has no column %q", t.Schema.Name, column)
	}
	if row < 0 || row >= c.Len() {
		return Value{}, fmt.Errorf("storage: table %q row %d out of range [0,%d)", t.Schema.Name, row, c.Len())
	}
	return c.Value(row), nil
}

// BuildIndex builds (or rebuilds) a hash index on the named column.
func (t *Table) BuildIndex(column string) error {
	c := t.Column(column)
	if c == nil {
		return fmt.Errorf("storage: cannot index unknown column %q.%q", t.Schema.Name, column)
	}
	ix := newIndex[int32](c.Type)
	for i := 0; i < c.Len(); i++ {
		ix.add(c.Value(i), int32(i))
	}
	t.indexes[column] = ix
	return nil
}

// Index returns the hash index on the named column, or nil if none exists.
func (t *Table) Index(column string) *Index[int32] { return t.indexes[column] }

// DistinctCount returns the number of distinct values in the named column.
func (t *Table) DistinctCount(column string) int {
	c := t.Column(column)
	if c == nil {
		return 0
	}
	if c.Type == schema.IntType {
		seen := make(map[int64]struct{}, len(c.Ints))
		for _, v := range c.Ints {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	seen := make(map[string]struct{}, len(c.Strs))
	for _, v := range c.Strs {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Database is a set of stored tables plus the catalog describing them.
type Database struct {
	Catalog *schema.Catalog
	tables  map[string]*Table
}

// NewDatabase creates an empty database with one stored table per catalog
// table.
func NewDatabase(cat *schema.Catalog) *Database {
	db := &Database{Catalog: cat, tables: make(map[string]*Table, cat.NumRelations())}
	for _, ts := range cat.Tables() {
		db.tables[ts.Name] = NewTable(ts)
	}
	return db
}

// Table returns the stored table with the given name, or nil.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// BuildIndexes builds a hash index on every column the catalog lists for
// storage indexing (see schema.Catalog.StorageIndexColumns).
func (db *Database) BuildIndexes() error {
	for _, ts := range db.Catalog.Tables() {
		for _, col := range db.Catalog.StorageIndexColumns(ts.Name) {
			if err := db.tables[ts.Name].BuildIndex(col); err != nil {
				return err
			}
		}
	}
	return nil
}

// TotalRows returns the total number of rows across all tables.
func (db *Database) TotalRows() int {
	total := 0
	for _, t := range db.tables {
		total += t.NumRows()
	}
	return total
}

// ApproxSizeBytes returns a rough estimate of the database size, used only
// for reporting (e.g. the row-vector training-time experiment scales with
// data volume, mirroring Figure 17).
func (db *Database) ApproxSizeBytes() int64 {
	var total int64
	for _, t := range db.tables {
		for _, c := range t.Columns {
			if c.Type == schema.IntType {
				total += int64(len(c.Ints)) * 8
			} else {
				for _, s := range c.Strs {
					total += int64(len(s)) + 16
				}
			}
		}
	}
	return total
}
