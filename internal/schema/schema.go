// Package schema defines the relational catalog model used throughout the
// repository: tables, columns, foreign keys and secondary indexes.
//
// The catalog is the single source of truth for the feature-space layout of
// Neo's encodings: the number of relations |R| determines the width of the
// plan-level node vectors (|J| + 2|R|), and the global attribute ordering
// determines the layout of the column-predicate vector in the query-level
// encoding (Section 3.2 of the paper).
package schema

import (
	"fmt"
	"sort"
)

// ColType is the logical type of a column. The reproduction only needs two
// value domains: integers (keys, years, numeric measures) and strings
// (categorical values such as genres, keywords, names).
type ColType int

const (
	// IntType marks integer-valued columns.
	IntType ColType = iota
	// StringType marks string-valued (categorical) columns.
	StringType
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case IntType:
		return "int"
	case StringType:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes a single attribute of a table.
type Column struct {
	// Name is the column name, unique within its table.
	Name string
	// Type is the logical value domain of the column.
	Type ColType
	// Distinct is the (approximate) number of distinct values the data
	// generator will place in the column. It is advisory; statistics are
	// always rebuilt from the actual data.
	Distinct int
}

// Index describes a secondary index available to the execution engine.
type Index struct {
	// Table is the indexed table.
	Table string
	// Column is the indexed column.
	Column string
}

// ForeignKey declares that FromTable.FromColumn references ToTable.ToColumn.
// Foreign keys define the join graph that workload generators draw equi-join
// predicates from.
type ForeignKey struct {
	FromTable  string
	FromColumn string
	ToTable    string
	ToColumn   string
}

// Table describes a relation: its name, primary key and columns.
type Table struct {
	// Name is the relation name, unique within the catalog.
	Name string
	// PrimaryKey is the name of the primary-key column (may be empty).
	PrimaryKey string
	// Columns lists the attributes in declaration order.
	Columns []Column
}

// Column returns the column with the given name and whether it exists.
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// ColumnIndex returns the positional index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColumnRef names a column within a table ("table.column").
type ColumnRef struct {
	Table  string
	Column string
}

// String implements fmt.Stringer.
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// Catalog is an immutable collection of tables, foreign keys and indexes.
// Build one with NewCatalog; lookups are O(1) afterwards.
type Catalog struct {
	tables      []*Table
	foreignKeys []ForeignKey
	indexes     []Index

	tableIdx map[string]int
	// attrIdx maps "table.column" to a position in the global attribute
	// ordering used by the query-level encoding.
	attrIdx  map[string]int
	attrList []ColumnRef
	indexed  map[string]bool
	// fkByPair maps the unordered table pair "a|b" (a < b) to the join
	// columns connecting them.
	fkByPair map[string]ForeignKey
}

// NewCatalog validates the given tables, foreign keys and indexes and builds
// the lookup structures. Table order is preserved; it defines the relation
// ordering |R| used by the plan-level encoding.
func NewCatalog(tables []*Table, fks []ForeignKey, indexes []Index) (*Catalog, error) {
	c := &Catalog{
		tables:      tables,
		foreignKeys: fks,
		indexes:     indexes,
		tableIdx:    make(map[string]int, len(tables)),
		attrIdx:     make(map[string]int),
		indexed:     make(map[string]bool),
		fkByPair:    make(map[string]ForeignKey),
	}
	for i, t := range tables {
		if t == nil || t.Name == "" {
			return nil, fmt.Errorf("schema: table %d is nil or unnamed", i)
		}
		if _, dup := c.tableIdx[t.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate table %q", t.Name)
		}
		c.tableIdx[t.Name] = i
		seen := make(map[string]bool, len(t.Columns))
		for _, col := range t.Columns {
			if col.Name == "" {
				return nil, fmt.Errorf("schema: table %q has an unnamed column", t.Name)
			}
			if seen[col.Name] {
				return nil, fmt.Errorf("schema: table %q has duplicate column %q", t.Name, col.Name)
			}
			seen[col.Name] = true
			ref := ColumnRef{Table: t.Name, Column: col.Name}
			c.attrIdx[ref.String()] = len(c.attrList)
			c.attrList = append(c.attrList, ref)
		}
		if t.PrimaryKey != "" && !seen[t.PrimaryKey] {
			return nil, fmt.Errorf("schema: table %q primary key %q is not a column", t.Name, t.PrimaryKey)
		}
	}
	for _, fk := range fks {
		if err := c.checkColumn(fk.FromTable, fk.FromColumn); err != nil {
			return nil, fmt.Errorf("schema: foreign key source: %w", err)
		}
		if err := c.checkColumn(fk.ToTable, fk.ToColumn); err != nil {
			return nil, fmt.Errorf("schema: foreign key target: %w", err)
		}
		c.fkByPair[pairKey(fk.FromTable, fk.ToTable)] = fk
	}
	for _, idx := range indexes {
		if err := c.checkColumn(idx.Table, idx.Column); err != nil {
			return nil, fmt.Errorf("schema: index: %w", err)
		}
		c.indexed[idx.Table+"."+idx.Column] = true
	}
	return c, nil
}

// MustNewCatalog is NewCatalog but panics on error. Intended for statically
// known schemas built in code (the data generators).
func MustNewCatalog(tables []*Table, fks []ForeignKey, indexes []Index) *Catalog {
	c, err := NewCatalog(tables, fks, indexes)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Catalog) checkColumn(table, column string) error {
	ti, ok := c.tableIdx[table]
	if !ok {
		return fmt.Errorf("unknown table %q", table)
	}
	if _, ok := c.tables[ti].Column(column); !ok {
		return fmt.Errorf("unknown column %q.%q", table, column)
	}
	return nil
}

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Tables returns the tables in catalog order.
func (c *Catalog) Tables() []*Table { return c.tables }

// NumRelations returns |R|, the number of relations in the catalog.
func (c *Catalog) NumRelations() int { return len(c.tables) }

// NumAttributes returns the total number of attributes across all tables,
// i.e. the length of the 1-Hot column-predicate vector.
func (c *Catalog) NumAttributes() int { return len(c.attrList) }

// Table returns the table with the given name and whether it exists.
func (c *Catalog) Table(name string) (*Table, bool) {
	i, ok := c.tableIdx[name]
	if !ok {
		return nil, false
	}
	return c.tables[i], true
}

// TableIndex returns the position of the named table in the catalog's
// relation ordering, or -1 if the table does not exist.
func (c *Catalog) TableIndex(name string) int {
	i, ok := c.tableIdx[name]
	if !ok {
		return -1
	}
	return i
}

// AttributeIndex returns the position of table.column in the global
// attribute ordering, or -1 if it does not exist.
func (c *Catalog) AttributeIndex(table, column string) int {
	i, ok := c.attrIdx[table+"."+column]
	if !ok {
		return -1
	}
	return i
}

// ForeignKeys returns the declared foreign keys.
func (c *Catalog) ForeignKeys() []ForeignKey { return c.foreignKeys }

// Indexes returns the declared secondary indexes.
func (c *Catalog) Indexes() []Index { return c.indexes }

// HasIndex reports whether a secondary index exists on table.column.
// Primary-key columns are always considered indexed.
func (c *Catalog) HasIndex(table, column string) bool {
	if c.indexed[table+"."+column] {
		return true
	}
	if t, ok := c.Table(table); ok && t.PrimaryKey == column && column != "" {
		return true
	}
	return false
}

// StorageIndexColumns lists, sorted and without duplicates, the columns of
// table that storage keeps a hash index on: the primary key, every declared
// secondary index and both ends of every foreign key (the executor probes
// those for index-nested-loop joins). It is a superset of what HasIndex
// reports, which is the narrower set the cost models price.
func (c *Catalog) StorageIndexColumns(table string) []string {
	var out []string
	if t, ok := c.Table(table); ok && t.PrimaryKey != "" {
		out = append(out, t.PrimaryKey)
	}
	for _, ix := range c.indexes {
		if ix.Table == table {
			out = append(out, ix.Column)
		}
	}
	for _, fk := range c.foreignKeys {
		if fk.FromTable == table {
			out = append(out, fk.FromColumn)
		}
		if fk.ToTable == table {
			out = append(out, fk.ToColumn)
		}
	}
	sort.Strings(out)
	return dedupeSorted(out)
}

// JoinColumns returns the foreign key connecting two tables (in either
// direction) and whether such a key exists. The returned key is oriented as
// declared, not as queried.
func (c *Catalog) JoinColumns(a, b string) (ForeignKey, bool) {
	fk, ok := c.fkByPair[pairKey(a, b)]
	return fk, ok
}

// JoinableNeighbors returns, for the given table, the names of every table it
// shares a foreign key with, sorted for determinism.
func (c *Catalog) JoinableNeighbors(table string) []string {
	var out []string
	for _, fk := range c.foreignKeys {
		switch table {
		case fk.FromTable:
			out = append(out, fk.ToTable)
		case fk.ToTable:
			out = append(out, fk.FromTable)
		}
	}
	sort.Strings(out)
	// Dedupe (a pair of tables may share only one FK by construction, but a
	// table may appear twice if declared redundantly).
	out = dedupeSorted(out)
	return out
}

func dedupeSorted(in []string) []string {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
