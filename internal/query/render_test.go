package query

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"neo/internal/datagen"
	"neo/internal/schema"
	"neo/internal/storage"
)

// The fmt-based renderers the append renderers replaced, kept as the
// references they must match byte for byte: signatures are plan-cache keys,
// experience IDs and checkpoint contents.

func referenceValueString(v storage.Value) string {
	if v.Kind == schema.IntType {
		return fmt.Sprintf("%d", v.Int)
	}
	return v.Str
}

func referenceSignature(q *Query) string {
	rels := append([]string(nil), q.Relations...)
	sort.Strings(rels)
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		l, r := j.LeftTable+"."+j.LeftColumn, j.RightTable+"."+j.RightColumn
		if r < l {
			l, r = r, l
		}
		joins[i] = l + "=" + r
	}
	sort.Strings(joins)
	preds := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		preds[i] = fmt.Sprintf("%s.%s %s %q", p.Table, p.Column, p.Op, referenceValueString(p.Value))
	}
	sort.Strings(preds)
	return strings.Join(rels, ",") + "|" + strings.Join(joins, "&") + "|" + strings.Join(preds, "&")
}

func referenceSQL(q *Query) string {
	var b strings.Builder
	b.WriteString("SELECT count(*) FROM ")
	b.WriteString(strings.Join(q.Relations, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn))
	}
	for _, p := range q.Predicates {
		val := referenceValueString(p.Value)
		if p.Value.Kind == schema.StringType {
			val = "'" + val + "'"
		}
		conds = append(conds, fmt.Sprintf("%s.%s %s %s", p.Table, p.Column, p.Op, val))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	b.WriteString(";")
	return b.String()
}

// referenceValidate is Validate as it was before it stopped allocating: a
// relation set and a breadth-first walk of the join graph.
func referenceValidate(q *Query, cat *schema.Catalog) error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("query %s: no relations", q.ID)
	}
	rels := make(map[string]bool, len(q.Relations))
	for _, r := range q.Relations {
		if _, ok := cat.Table(r); !ok {
			return fmt.Errorf("query %s: unknown relation %q", q.ID, r)
		}
		if rels[r] {
			return fmt.Errorf("query %s: duplicate relation %q (self-joins are not supported)", q.ID, r)
		}
		rels[r] = true
	}
	for _, j := range q.Joins {
		for _, side := range []struct{ t, c string }{
			{j.LeftTable, j.LeftColumn}, {j.RightTable, j.RightColumn},
		} {
			if !rels[side.t] {
				return fmt.Errorf("query %s: join predicate %s references relation %q not in FROM", q.ID, fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn), side.t)
			}
			tab, _ := cat.Table(side.t)
			if _, ok := tab.Column(side.c); !ok {
				return fmt.Errorf("query %s: join predicate %s references unknown column %s.%s", q.ID, j, side.t, side.c)
			}
		}
	}
	for _, p := range q.Predicates {
		if !rels[p.Table] {
			return fmt.Errorf("query %s: predicate %s references relation %q not in FROM", q.ID, p, p.Table)
		}
		tab, _ := cat.Table(p.Table)
		col, ok := tab.Column(p.Column)
		if !ok {
			return fmt.Errorf("query %s: predicate %s references unknown column", q.ID, p)
		}
		if p.Op != Like && col.Type != p.Value.Kind {
			return fmt.Errorf("query %s: predicate %s compares %v column with %v value", q.ID, p, col.Type, p.Value.Kind)
		}
	}
	if len(q.Relations) > 1 {
		visited := map[string]bool{q.Relations[0]: true}
		frontier := []string{q.Relations[0]}
		for len(frontier) > 0 {
			cur := frontier[0]
			frontier = frontier[1:]
			for _, j := range q.Joins {
				var other string
				switch cur {
				case j.LeftTable:
					other = j.RightTable
				case j.RightTable:
					other = j.LeftTable
				default:
					continue
				}
				if !visited[other] {
					visited[other] = true
					frontier = append(frontier, other)
				}
			}
		}
		if len(visited) != len(q.Relations) {
			return fmt.Errorf("query %s: join graph is not connected", q.ID)
		}
	}
	return nil
}

// referenceMatches is Matches as it was, lowercasing a LIKE needle per call.
func referenceMatches(p Predicate, v storage.Value) bool {
	if p.Op == Like {
		return strings.Contains(strings.ToLower(referenceValueString(v)), strings.ToLower(referenceValueString(p.Value)))
	}
	return p.Matches(v)
}

// fuzzQuery builds a query from fuzz input: up to 4 relations, joins and
// predicates over a small alphabet of names (so that sorting, side swaps
// and the separators in values all come up), unsorted relations included.
func fuzzQuery(names string, ops []byte, values []string, ints []int64) *Query {
	pick := func(i int) string {
		if len(names) == 0 {
			return ""
		}
		// Slices of names, split on its own bytes, reach ".", "|", "&",
		// quotes and non-ASCII.
		parts := strings.FieldsFunc(names, func(r rune) bool { return r == ' ' })
		if len(parts) == 0 {
			return names
		}
		return parts[i%len(parts)]
	}
	q := &Query{ID: "fuzz"}
	for i := 0; i < len(ops) && i < 4; i++ {
		q.Relations = append(q.Relations, pick(int(ops[i])))
		q.Joins = append(q.Joins, JoinPredicate{pick(i), pick(i + 1), pick(int(ops[i]) + 2), pick(i + 3)})
		p := Predicate{Table: pick(i + 1), Column: pick(int(ops[i])), Op: CmpOp(int(ops[i]) % 9)}
		switch {
		case ops[i]&1 == 0 && i < len(values):
			p.Value = storage.StringValue(values[i])
		case i < len(ints):
			p.Value = storage.IntValue(ints[i])
		default:
			p.Value = storage.Value{Kind: schema.ColType(ops[i] % 4), Int: int64(ops[i]), Str: names}
		}
		q.Predicates = append(q.Predicates, p)
	}
	return q
}

func checkRenderers(t *testing.T, q *Query) {
	t.Helper()
	if got, want := q.Signature(), referenceSignature(q); got != want {
		t.Errorf("Signature = %q, reference %q", got, want)
	}
	if got, want := q.SQL(), referenceSQL(q); got != want {
		t.Errorf("SQL = %q, reference %q", got, want)
	}
	for _, p := range q.Predicates {
		if got, want := p.Value.String(), referenceValueString(p.Value); got != want {
			t.Errorf("Value.String = %q, reference %q", got, want)
		}
		if got, want := p.String(), fmt.Sprintf("%s.%s %s %s", p.Table, p.Column, p.Op, referenceValueString(p.Value)); got != want {
			t.Errorf("Predicate.String = %q, reference %q", got, want)
		}
	}
	for _, j := range q.Joins {
		if got, want := j.String(), fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn); got != want {
			t.Errorf("JoinPredicate.String = %q, reference %q", got, want)
		}
	}
}

func TestRenderersMatchReference(t *testing.T) {
	checkRenderers(t, sampleQuery())
	checkRenderers(t, &Query{})
	// Separators and quotes in values, names that sort differently joined
	// than alone ("a-b.x" < "a.x" although "a" < "a-b"), a minimum int, a
	// value of an unknown kind, more elements than the on-stack buffers.
	q := &Query{
		Relations: []string{"zeta", "a-b", "a", "é"},
		Joins: []JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "a-b", RightColumn: "x"},
			{LeftTable: "zeta", LeftColumn: "k", RightTable: "a", RightColumn: "k"},
		},
		Predicates: []Predicate{
			{Table: "a", Column: "s", Op: Like, Value: storage.StringValue(`he said "x|y&z,w" \ ok`)},
			{Table: "a", Column: "n", Op: Ge, Value: storage.IntValue(-9223372036854775808)},
			{Table: "é", Column: "s", Op: Eq, Value: storage.StringValue("naïve\x00 ")},
			{Table: "a", Column: "s", Op: CmpOp(42), Value: storage.Value{Kind: 7, Str: "odd"}},
		},
	}
	checkRenderers(t, q)
	big := &Query{}
	for i := 0; i < 40; i++ {
		big.Relations = append(big.Relations, fmt.Sprintf("rel_with_a_long_name_%02d", 40-i))
		big.Joins = append(big.Joins, JoinPredicate{fmt.Sprint("t", i), "c", fmt.Sprint("t", 40-i), "c"})
		big.Predicates = append(big.Predicates, Predicate{Table: "t", Column: fmt.Sprint("c", i%7), Op: CmpOp(i % 7), Value: storage.StringValue(strings.Repeat("v", i))})
	}
	checkRenderers(t, big)
}

// FuzzRenderers checks Signature, SQL, Value.String and the predicates'
// String methods against the fmt-based references byte for byte.
func FuzzRenderers(f *testing.F) {
	f.Add("title movie_keyword a-b a", []byte{0, 1, 2, 6}, "love", `x"|&,y`, int64(1985), int64(-3))
	f.Add("é ü   . | &", []byte{7, 8, 3}, "\x00\xff", "", int64(0), int64(9))
	f.Fuzz(func(t *testing.T, names string, ops []byte, v1, v2 string, i1, i2 int64) {
		checkRenderers(t, fuzzQuery(names, ops, []string{v1, v2, v1 + v2}, []int64{i1, i2, i1 ^ i2}))
	})
}

// TestValidateMatchesReference: Validate runs the same checks in the same
// order as the map-based reference, so every query gets the same error.
func TestValidateMatchesReference(t *testing.T) {
	cat := datagen.IMDBCatalog()
	base := sampleQuery()
	variants := []*Query{base, New("one", []string{"title"}, nil, nil), {ID: "none"}}
	mutate := func(f func(q *Query)) {
		q := New(base.ID, base.Relations, append([]JoinPredicate(nil), base.Joins...), append([]Predicate(nil), base.Predicates...))
		f(q)
		variants = append(variants, q)
	}
	mutate(func(q *Query) { q.Relations = append(q.Relations, "nope") })
	mutate(func(q *Query) { q.Relations = append(q.Relations, "title") })
	mutate(func(q *Query) { q.Relations = append(q.Relations, "nope", "title") })
	mutate(func(q *Query) { q.Joins[0].RightTable = "company" })
	mutate(func(q *Query) { q.Joins[1].LeftColumn = "nope" })
	mutate(func(q *Query) { q.Joins[1].RightColumn = "nope" })
	mutate(func(q *Query) { q.Predicates[0].Table = "company" })
	mutate(func(q *Query) { q.Predicates[1].Column = "nope" })
	mutate(func(q *Query) { q.Predicates[1].Value = storage.StringValue("2000") })
	mutate(func(q *Query) { q.Predicates[1].Op = Like; q.Predicates[1].Value = storage.StringValue("20") })
	mutate(func(q *Query) { q.Joins = q.Joins[:1] })
	mutate(func(q *Query) { q.Joins = nil })
	mutate(func(q *Query) { q.Relations = append(q.Relations, "company") })
	mutate(func(q *Query) {
		q.Relations = append(q.Relations, "company")
		q.Joins = append(q.Joins, JoinPredicate{"company", "id", "company", "id"})
	})
	for i, q := range variants {
		got, want := q.Validate(cat), referenceValidate(q, cat)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("variant %d: Validate = %v, reference %v", i, got, want)
		}
	}
}

// FuzzValidate compares Validate with the reference on fuzzed queries over
// the catalog's own names.
func FuzzValidate(f *testing.F) {
	cat := datagen.IMDBCatalog()
	var names []string
	for _, tab := range cat.Tables() {
		names = append(names, tab.Name)
		for _, c := range tab.Columns {
			names = append(names, c.Name)
		}
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		q := &Query{ID: "fuzz"}
		name := func(i int) string { return names[int(b[i%len(b)])%len(names)] }
		for i := 0; i+3 < len(b) && i < 24; i += 4 {
			switch b[i] % 3 {
			case 0:
				q.Relations = append(q.Relations, name(i+1))
			case 1:
				q.Joins = append(q.Joins, JoinPredicate{name(i + 1), name(i + 2), name(i + 3), name(i + 2)})
			default:
				v := storage.IntValue(int64(b[i+3]))
				if b[i+3]&1 == 1 {
					v = storage.StringValue(name(i + 3))
				}
				q.Predicates = append(q.Predicates, Predicate{name(i + 1), name(i + 2), CmpOp(b[i+3] % 7), v})
			}
		}
		got, want := q.Validate(cat), referenceValidate(q, cat)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate = %v, reference %v for %+v", got, want, q)
		}
	})
}

// TestValidQueryCostsNoAllocation: the serve path validates every request,
// hits included.
func TestValidQueryCostsNoAllocation(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := sampleQuery()
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = q.Validate(cat) }); n != 0 {
		t.Errorf("Validate allocates %.0f times per valid query, want 0", n)
	}
}

// TestSignatureAllocatesOnlyItsString: the signature renders into stack
// buffers; the one allocation is the returned string.
func TestSignatureAllocatesOnlyItsString(t *testing.T) {
	q := sampleQuery()
	if n := testing.AllocsPerRun(100, func() { _ = q.Signature() }); n != 1 {
		t.Errorf("Signature allocates %.0f times, want 1", n)
	}
}

// TestMatcherMatchesReference: a LIKE matcher lowercases its needle once, and
// answers as the per-call reference does for mixed case, non-ASCII case
// mappings (ß, the Kelvin sign, dotted İ) and int operands.
func TestMatcherMatchesReference(t *testing.T) {
	values := []storage.Value{
		storage.StringValue("My-LOVE-story"), storage.StringValue("ÉCOLE"), storage.StringValue("straße"),
		storage.StringValue("İstanbul"), storage.StringValue("Kelvin"), storage.StringValue(""),
		storage.IntValue(1985), storage.IntValue(-42), storage.IntValue(0),
	}
	needles := []storage.Value{
		storage.StringValue("love"), storage.StringValue("LoVe"), storage.StringValue("école"),
		storage.StringValue("STRASSE"), storage.StringValue("ß"), storage.StringValue("i̇st"),
		storage.StringValue("kelvin"), storage.StringValue(""), storage.StringValue("98"),
		storage.IntValue(98), storage.IntValue(-4), storage.IntValue(1985),
	}
	for _, op := range []CmpOp{Like, Eq, Lt} {
		for _, n := range needles {
			p := Predicate{Table: "t", Column: "c", Op: op, Value: n}
			m := p.Matcher()
			for _, v := range values {
				if got, want := m(v), referenceMatches(p, v); got != want {
					t.Errorf("%v %s %v: Matcher %v, reference %v", v, op, n, got, want)
				}
				if got, want := p.Matches(v), referenceMatches(p, v); got != want {
					t.Errorf("%v %s %v: Matches %v, reference %v", v, op, n, got, want)
				}
			}
		}
	}
}
