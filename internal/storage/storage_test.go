package storage

import (
	"testing"
	"testing/quick"

	"neo/internal/schema"
)

func testCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	tables := []*schema.Table{
		{
			Name:       "title",
			PrimaryKey: "id",
			Columns: []schema.Column{
				{Name: "id", Type: schema.IntType},
				{Name: "kind", Type: schema.StringType},
				{Name: "year", Type: schema.IntType},
			},
		},
		{
			Name:       "movie_keyword",
			PrimaryKey: "id",
			Columns: []schema.Column{
				{Name: "id", Type: schema.IntType},
				{Name: "movie_id", Type: schema.IntType},
			},
		},
	}
	fks := []schema.ForeignKey{
		{FromTable: "movie_keyword", FromColumn: "movie_id", ToTable: "title", ToColumn: "id"},
	}
	return schema.MustNewCatalog(tables, fks, nil)
}

func populated(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(testCatalog(t))
	title := db.Table("title")
	kinds := []string{"movie", "movie", "tv", "movie", "video"}
	for i := 0; i < 5; i++ {
		if err := title.AppendRow(IntValue(int64(i)), StringValue(kinds[i]), IntValue(int64(1990+i%3))); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	mk := db.Table("movie_keyword")
	for i := 0; i < 8; i++ {
		if err := mk.AppendRow(IntValue(int64(i)), IntValue(int64(i%5))); err != nil {
			t.Fatalf("AppendRow: %v", err)
		}
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatalf("BuildIndexes: %v", err)
	}
	return db
}

func TestAppendAndValue(t *testing.T) {
	db := populated(t)
	title := db.Table("title")
	if title.NumRows() != 5 {
		t.Fatalf("NumRows = %d, want 5", title.NumRows())
	}
	v, err := title.Value("kind", 2)
	if err != nil {
		t.Fatalf("Value: %v", err)
	}
	if v.Str != "tv" {
		t.Errorf("kind[2] = %q, want tv", v.Str)
	}
	if _, err := title.Value("kind", 99); err == nil {
		t.Errorf("expected out-of-range error")
	}
	if _, err := title.Value("nope", 0); err == nil {
		t.Errorf("expected unknown-column error")
	}
}

func TestAppendRowValidation(t *testing.T) {
	db := NewDatabase(testCatalog(t))
	title := db.Table("title")
	if err := title.AppendRow(IntValue(1)); err == nil {
		t.Errorf("expected arity error")
	}
	if err := title.AppendRow(StringValue("x"), StringValue("movie"), IntValue(2000)); err == nil {
		t.Errorf("expected type mismatch error")
	}
}

func TestHashIndexLookup(t *testing.T) {
	db := populated(t)
	mk := db.Table("movie_keyword")
	ix := mk.Index("movie_id")
	if ix == nil {
		t.Fatalf("expected index on movie_keyword.movie_id (foreign key)")
	}
	rows := ix.Lookup(IntValue(3))
	// movie_id = i%5, so rows 3 only (i=3) and i=8 doesn't exist; 8 rows: i=3 only... i%5==3 for i=3.
	if len(rows) != 1 || rows[0] != 3 {
		t.Errorf("Lookup(3) = %v, want [3]", rows)
	}
	rows = ix.Lookup(IntValue(0))
	if len(rows) != 2 {
		t.Errorf("Lookup(0) = %v, want 2 rows (i=0, i=5)", rows)
	}
	if got := ix.Lookup(IntValue(77)); len(got) != 0 {
		t.Errorf("Lookup(77) = %v, want empty", got)
	}
	if DistinctKeys(ix) != 5 {
		t.Errorf("DistinctKeys = %d, want 5", DistinctKeys(ix))
	}
}

func TestStringIndex(t *testing.T) {
	db := populated(t)
	title := db.Table("title")
	if err := title.BuildIndex("kind"); err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	rows := title.Index("kind").Lookup(StringValue("movie"))
	if len(rows) != 3 {
		t.Errorf("Lookup(movie) = %v, want 3 rows", rows)
	}
	if err := title.BuildIndex("missing"); err == nil {
		t.Errorf("expected error indexing missing column")
	}
}

func TestDistinctCount(t *testing.T) {
	db := populated(t)
	title := db.Table("title")
	if got := title.DistinctCount("kind"); got != 3 {
		t.Errorf("DistinctCount(kind) = %d, want 3", got)
	}
	if got := title.DistinctCount("id"); got != 5 {
		t.Errorf("DistinctCount(id) = %d, want 5", got)
	}
	if got := title.DistinctCount("absent"); got != 0 {
		t.Errorf("DistinctCount(absent) = %d, want 0", got)
	}
}

func TestDatabaseAggregates(t *testing.T) {
	db := populated(t)
	if got := db.TotalRows(); got != 13 {
		t.Errorf("TotalRows = %d, want 13", got)
	}
	if db.ApproxSizeBytes() <= 0 {
		t.Errorf("ApproxSizeBytes should be positive")
	}
	if db.Table("no_such_table") != nil {
		t.Errorf("unknown table should return nil")
	}
}

func TestValueOrderingProperties(t *testing.T) {
	// Less is a strict weak ordering on int values.
	f := func(a, b int64) bool {
		va, vb := IntValue(a), IntValue(b)
		if a == b {
			return !va.Less(vb) && !vb.Less(va) && va.Equal(vb)
		}
		return va.Less(vb) != vb.Less(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Ints sort before strings regardless of content.
	g := func(a int64, s string) bool {
		return IntValue(a).Less(StringValue(s)) && !StringValue(s).Less(IntValue(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	if IntValue(42).String() != "42" {
		t.Errorf("IntValue(42).String() = %q", IntValue(42).String())
	}
	if StringValue("abc").String() != "abc" {
		t.Errorf("StringValue(abc).String() = %q", StringValue("abc").String())
	}
}

func TestColumnAppendTypeCheck(t *testing.T) {
	c := &Column{Type: schema.IntType}
	if err := c.Append(StringValue("x")); err == nil {
		t.Errorf("expected type mismatch error")
	}
	if err := c.Append(IntValue(7)); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if c.Len() != 1 || c.Value(0).Int != 7 {
		t.Errorf("column contents wrong: %+v", c)
	}
}
