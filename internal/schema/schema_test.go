package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	tables := []*Table{
		{
			Name:       "title",
			PrimaryKey: "id",
			Columns: []Column{
				{Name: "id", Type: IntType, Distinct: 1000},
				{Name: "production_year", Type: IntType, Distinct: 50},
				{Name: "kind", Type: StringType, Distinct: 5},
			},
		},
		{
			Name:       "movie_keyword",
			PrimaryKey: "id",
			Columns: []Column{
				{Name: "id", Type: IntType, Distinct: 3000},
				{Name: "movie_id", Type: IntType, Distinct: 1000},
				{Name: "keyword_id", Type: IntType, Distinct: 200},
			},
		},
		{
			Name:       "keyword",
			PrimaryKey: "id",
			Columns: []Column{
				{Name: "id", Type: IntType, Distinct: 200},
				{Name: "keyword", Type: StringType, Distinct: 200},
			},
		},
	}
	fks := []ForeignKey{
		{FromTable: "movie_keyword", FromColumn: "movie_id", ToTable: "title", ToColumn: "id"},
		{FromTable: "movie_keyword", FromColumn: "keyword_id", ToTable: "keyword", ToColumn: "id"},
	}
	idx := []Index{{Table: "movie_keyword", Column: "movie_id"}}
	c, err := NewCatalog(tables, fks, idx)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog(t)
	if got := c.NumRelations(); got != 3 {
		t.Errorf("NumRelations = %d, want 3", got)
	}
	if got := c.NumAttributes(); got != 8 {
		t.Errorf("NumAttributes = %d, want 8", got)
	}
	if got := c.TableIndex("title"); got != 0 {
		t.Errorf("TableIndex(title) = %d, want 0", got)
	}
	if got := c.TableIndex("keyword"); got != 2 {
		t.Errorf("TableIndex(keyword) = %d, want 2", got)
	}
	if got := c.TableIndex("nope"); got != -1 {
		t.Errorf("TableIndex(nope) = %d, want -1", got)
	}
	if _, ok := c.Table("movie_keyword"); !ok {
		t.Errorf("Table(movie_keyword) not found")
	}
}

func TestAttributeOrdering(t *testing.T) {
	c := testCatalog(t)
	attrs := c.attrList
	if len(attrs) != c.NumAttributes() {
		t.Fatalf("attribute list length %d != NumAttributes %d", len(attrs), c.NumAttributes())
	}
	// Attribute indexes must be dense, unique and consistent with the list.
	for i, ref := range attrs {
		if got := c.AttributeIndex(ref.Table, ref.Column); got != i {
			t.Errorf("AttributeIndex(%s) = %d, want %d", ref, got, i)
		}
	}
	if got := c.AttributeIndex("title", "production_year"); got != 1 {
		t.Errorf("AttributeIndex(title.production_year) = %d, want 1", got)
	}
	if got := c.AttributeIndex("no", "such"); got != -1 {
		t.Errorf("AttributeIndex(no.such) = %d, want -1", got)
	}
}

func TestJoinColumns(t *testing.T) {
	c := testCatalog(t)
	fk, ok := c.JoinColumns("title", "movie_keyword")
	if !ok {
		t.Fatalf("JoinColumns(title, movie_keyword) not found")
	}
	if fk.FromTable != "movie_keyword" || fk.ToTable != "title" {
		t.Errorf("unexpected foreign key orientation: %+v", fk)
	}
	// Order of arguments must not matter.
	fk2, ok2 := c.JoinColumns("movie_keyword", "title")
	if !ok2 || fk2 != fk {
		t.Errorf("JoinColumns is not symmetric: %+v vs %+v", fk, fk2)
	}
	if _, ok := c.JoinColumns("title", "keyword"); ok {
		t.Errorf("JoinColumns(title, keyword) should not exist")
	}
}

func TestJoinableNeighbors(t *testing.T) {
	c := testCatalog(t)
	got := c.JoinableNeighbors("movie_keyword")
	want := []string{"keyword", "title"}
	if len(got) != len(want) {
		t.Fatalf("JoinableNeighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("JoinableNeighbors = %v, want %v", got, want)
		}
	}
	if n := c.JoinableNeighbors("keyword"); len(n) != 1 || n[0] != "movie_keyword" {
		t.Errorf("JoinableNeighbors(keyword) = %v", n)
	}
}

func TestHasIndex(t *testing.T) {
	c := testCatalog(t)
	if !c.HasIndex("movie_keyword", "movie_id") {
		t.Errorf("expected secondary index on movie_keyword.movie_id")
	}
	if !c.HasIndex("title", "id") {
		t.Errorf("primary key column should count as indexed")
	}
	if c.HasIndex("title", "kind") {
		t.Errorf("title.kind should not be indexed")
	}
	if c.HasIndex("nope", "id") {
		t.Errorf("unknown table should not be indexed")
	}
}

func TestCatalogValidation(t *testing.T) {
	base := func() []*Table {
		return []*Table{
			{Name: "a", PrimaryKey: "id", Columns: []Column{{Name: "id", Type: IntType}}},
			{Name: "b", Columns: []Column{{Name: "id", Type: IntType}, {Name: "a_id", Type: IntType}}},
		}
	}
	cases := []struct {
		name    string
		tables  []*Table
		fks     []ForeignKey
		indexes []Index
		wantErr string
	}{
		{
			name:    "duplicate table",
			tables:  append(base(), &Table{Name: "a", Columns: []Column{{Name: "x"}}}),
			wantErr: "duplicate table",
		},
		{
			name: "duplicate column",
			tables: []*Table{
				{Name: "a", Columns: []Column{{Name: "id"}, {Name: "id"}}},
			},
			wantErr: "duplicate column",
		},
		{
			name: "bad primary key",
			tables: []*Table{
				{Name: "a", PrimaryKey: "nope", Columns: []Column{{Name: "id"}}},
			},
			wantErr: "primary key",
		},
		{
			name:    "fk unknown table",
			tables:  base(),
			fks:     []ForeignKey{{FromTable: "z", FromColumn: "id", ToTable: "a", ToColumn: "id"}},
			wantErr: "unknown table",
		},
		{
			name:    "fk unknown column",
			tables:  base(),
			fks:     []ForeignKey{{FromTable: "b", FromColumn: "zzz", ToTable: "a", ToColumn: "id"}},
			wantErr: "unknown column",
		},
		{
			name:    "index unknown column",
			tables:  base(),
			indexes: []Index{{Table: "a", Column: "zzz"}},
			wantErr: "unknown column",
		},
		{
			name:    "unnamed table",
			tables:  []*Table{{Name: "", Columns: []Column{{Name: "x"}}}},
			wantErr: "unnamed",
		},
		{
			name:    "unnamed column",
			tables:  []*Table{{Name: "a", Columns: []Column{{Name: ""}}}},
			wantErr: "unnamed column",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCatalog(tc.tables, tc.fks, tc.indexes)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestMustNewCatalogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNewCatalog should panic on invalid input")
		}
	}()
	MustNewCatalog([]*Table{{Name: "", Columns: nil}}, nil, nil)
}

func TestColumnLookup(t *testing.T) {
	c := testCatalog(t)
	tab, _ := c.Table("title")
	col, ok := tab.Column("kind")
	if !ok || col.Type != StringType {
		t.Errorf("Column(kind) = %+v, %v", col, ok)
	}
	if _, ok := tab.Column("missing"); ok {
		t.Errorf("Column(missing) should not exist")
	}
	if got := tab.ColumnIndex("production_year"); got != 1 {
		t.Errorf("ColumnIndex(production_year) = %d, want 1", got)
	}
	if got := tab.ColumnIndex("missing"); got != -1 {
		t.Errorf("ColumnIndex(missing) = %d, want -1", got)
	}
}

func TestColTypeString(t *testing.T) {
	if IntType.String() != "int" || StringType.String() != "string" {
		t.Errorf("unexpected ColType strings: %s %s", IntType, StringType)
	}
	if s := ColType(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown ColType string = %q", s)
	}
}

// Property: pairKey is symmetric for arbitrary strings, which is what makes
// JoinColumns order-insensitive.
func TestPairKeySymmetricProperty(t *testing.T) {
	f := func(a, b string) bool {
		return pairKey(a, b) == pairKey(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dedupeSorted never returns adjacent duplicates and preserves
// membership.
func TestDedupeSortedProperty(t *testing.T) {
	f := func(in []string) bool {
		// The helper requires sorted input.
		sorted := append([]string(nil), in...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		out := dedupeSorted(append([]string(nil), sorted...))
		for i := 1; i < len(out); i++ {
			if out[i] == out[i-1] {
				return false
			}
		}
		seen := make(map[string]bool)
		for _, s := range out {
			seen[s] = true
		}
		for _, s := range sorted {
			if !seen[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
