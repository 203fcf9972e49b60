// Package query models the project-select-equijoin-aggregate queries that
// Neo optimizes: the set of base relations, the equi-join predicates
// connecting them (the join graph), and the single-table column predicates.
//
// This is the "query-dependent but plan-independent" information of
// Section 3 of the paper; package feature turns it into the query-level
// encoding.
package query

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"neo/internal/schema"
	"neo/internal/storage"
)

// CmpOp is a comparison operator usable in a column predicate.
type CmpOp int

const (
	// Eq is equality (=).
	Eq CmpOp = iota
	// Ne is inequality (<>).
	Ne
	// Lt is less-than (<).
	Lt
	// Le is less-than-or-equal (<=).
	Le
	// Gt is greater-than (>).
	Gt
	// Ge is greater-than-or-equal (>=).
	Ge
	// Like is a substring match (ILIKE '%v%').
	Like
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Like:
		return "LIKE"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Predicate is a single-table filter of the form table.column OP value.
type Predicate struct {
	Table  string
	Column string
	Op     CmpOp
	Value  storage.Value
}

// String implements fmt.Stringer.
func (p Predicate) String() string {
	return fmt.Sprintf("%s.%s %s %s", p.Table, p.Column, p.Op, p.Value)
}

// Matches reports whether the given cell value satisfies the predicate.
func (p Predicate) Matches(v storage.Value) bool {
	switch p.Op {
	case Eq:
		return v.Equal(p.Value)
	case Ne:
		return !v.Equal(p.Value)
	case Lt:
		return v.Less(p.Value)
	case Le:
		return v.Less(p.Value) || v.Equal(p.Value)
	case Gt:
		return p.Value.Less(v)
	case Ge:
		return p.Value.Less(v) || v.Equal(p.Value)
	case Like:
		return likeMatches(v, strings.ToLower(p.Value.String()))
	default:
		return false
	}
}

// Matcher returns Matches as a function for testing many values, with a LIKE
// predicate's needle lowercased once rather than on every call.
func (p Predicate) Matcher() func(storage.Value) bool {
	if p.Op != Like {
		return p.Matches
	}
	needle := strings.ToLower(p.Value.String())
	return func(v storage.Value) bool { return likeMatches(v, needle) }
}

// likeMatches is LIKE '%needle%' without regard to case: needle is already
// lowercased, v's text is lowercased here.
func likeMatches(v storage.Value, needle string) bool {
	return strings.Contains(strings.ToLower(v.String()), needle)
}

// JoinPredicate is an equi-join predicate left.column = right.column.
type JoinPredicate struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// String implements fmt.Stringer: "left.column = right.column".
func (j JoinPredicate) String() string { return string(j.appendText(nil)) }

func (j JoinPredicate) appendText(dst []byte) []byte {
	dst = appendRef(dst, j.LeftTable, j.LeftColumn)
	dst = append(dst, " = "...)
	return appendRef(dst, j.RightTable, j.RightColumn)
}

// Touches reports whether the join predicate involves the given table.
func (j JoinPredicate) Touches(t string) bool {
	return j.LeftTable == t || j.RightTable == t
}

// Query is a select-project-equijoin-aggregate query over a set of base
// relations.
type Query struct {
	// ID identifies the query within its workload (e.g. "job-17a").
	ID string
	// Relations are the base relation names, in a canonical (sorted) order.
	Relations []string
	// Joins are the equi-join predicates.
	Joins []JoinPredicate
	// Predicates are the single-table filters.
	Predicates []Predicate
}

// New builds a query, canonicalising the relation order.
func New(id string, relations []string, joins []JoinPredicate, preds []Predicate) *Query {
	rels := append([]string(nil), relations...)
	sort.Strings(rels)
	return &Query{ID: id, Relations: rels, Joins: joins, Predicates: preds}
}

// NumJoins returns the number of join predicates in the query.
func (q *Query) NumJoins() int { return len(q.Joins) }

// Signature returns a canonical fingerprint of the query's structure —
// relations, join predicates and column predicates, each in sorted order —
// independent of the query's ID and of the order predicates were supplied
// in. Two queries with equal signatures have the same plan search space and
// the same optimal plan, which is what plan caches key on.
func (q *Query) Signature() string {
	var buf [256]byte
	return string(q.appendSignature(buf[:0]))
}

// appendSignature appends q's Signature text to dst: the relations joined
// by ",", then "|" and the join predicates as "l=r" (the smaller side first)
// joined by "&", then "|" and the column predicates as `t.c OP "value"`
// (the value Go-quoted: raw values may contain the separators, and a
// collision would make a plan cache serve the wrong plan) joined by "&";
// each list sorted bytewise. Relations are sorted here too, since literal
// Query construction can bypass New's canonical order.
func (q *Query) appendSignature(dst []byte) []byte {
	// Each list's elements are rendered back to back into buf, their extents
	// kept in spans, and emitted in the order of their texts.
	var scratch [512]byte
	var spanArray [16]span
	buf, spans := scratch[:0], spanArray[:0]
	for _, r := range q.Relations {
		start := len(buf)
		buf = append(buf, r...)
		spans = append(spans, span{start, len(buf)})
	}
	dst = appendSorted(dst, buf, spans, ',')
	dst = append(dst, '|')
	buf, spans = buf[:0], spans[:0]
	for _, j := range q.Joins {
		lt, lc, rt, rc := j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn
		if compareRefs(rt, rc, lt, lc) < 0 {
			lt, lc, rt, rc = rt, rc, lt, lc
		}
		start := len(buf)
		buf = appendRef(buf, lt, lc)
		buf = append(buf, '=')
		buf = appendRef(buf, rt, rc)
		spans = append(spans, span{start, len(buf)})
	}
	dst = appendSorted(dst, buf, spans, '&')
	dst = append(dst, '|')
	buf, spans = buf[:0], spans[:0]
	for _, p := range q.Predicates {
		start := len(buf)
		buf = appendRef(buf, p.Table, p.Column)
		buf = append(buf, ' ')
		buf = append(buf, p.Op.String()...)
		buf = append(buf, ' ')
		if p.Value.Kind == schema.IntType {
			// Digits and a sign need no escaping.
			buf = append(buf, '"')
			buf = p.Value.Append(buf)
			buf = append(buf, '"')
		} else {
			buf = strconv.AppendQuote(buf, p.Value.Str)
		}
		spans = append(spans, span{start, len(buf)})
	}
	return appendSorted(dst, buf, spans, '&')
}

// span is one element's [lo, hi) extent in a rendering buffer.
type span struct{ lo, hi int }

// appendSorted appends the elements buf[span] to dst in bytewise order, sep
// between them: sort.Strings over rendered texts without a string each.
func appendSorted(dst, buf []byte, spans []span, sep byte) []byte {
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = append(dst, buf[sp.lo:sp.hi]...)
	}
	return dst
}

// appendRef appends the column reference "table.column".
func appendRef(dst []byte, table, column string) []byte {
	dst = append(dst, table...)
	dst = append(dst, '.')
	return append(dst, column...)
}

// compareRefs compares the texts "at.ac" and "bt.bc" bytewise without
// building them.
func compareRefs(at, ac, bt, bc string) int {
	na, nb := len(at)+1+len(ac), len(bt)+1+len(bc)
	for i := 0; i < na && i < nb; i++ {
		if x, y := refByte(at, ac, i), refByte(bt, bc, i); x != y {
			return int(x) - int(y)
		}
	}
	return na - nb
}

// refByte is byte i of "table.column".
func refByte(table, column string, i int) byte {
	switch {
	case i < len(table):
		return table[i]
	case i == len(table):
		return '.'
	default:
		return column[i-len(table)-1]
	}
}

// PredicatesOn returns the column predicates on the given relation.
func (q *Query) PredicatesOn(table string) []Predicate {
	var out []Predicate
	for _, p := range q.Predicates {
		if p.Table == table {
			out = append(out, p)
		}
	}
	return out
}

// JoinsBetween returns all join predicates connecting any relation in the
// left set with any relation in the right set.
func (q *Query) JoinsBetween(left, right map[string]bool) []JoinPredicate {
	var out []JoinPredicate
	for _, j := range q.Joins {
		if (left[j.LeftTable] && right[j.RightTable]) || (left[j.RightTable] && right[j.LeftTable]) {
			out = append(out, j)
		}
	}
	return out
}

// Connected reports whether a join predicate exists between the two sets of
// relations.
func (q *Query) Connected(left, right map[string]bool) bool {
	return len(q.JoinsBetween(left, right)) > 0
}

// JoinGraph returns the symmetric adjacency matrix of the join graph over
// the catalog's full relation ordering: entry [i][j] is true when the query
// joins catalog relation i with catalog relation j. Relations not used by
// the query have empty rows/columns, exactly as in Figure 3 of the paper.
func (q *Query) JoinGraph(cat *schema.Catalog) [][]bool {
	n := cat.NumRelations()
	g := make([][]bool, n)
	for i := range g {
		g[i] = make([]bool, n)
	}
	for _, j := range q.Joins {
		a := cat.TableIndex(j.LeftTable)
		b := cat.TableIndex(j.RightTable)
		if a < 0 || b < 0 {
			continue
		}
		g[a][b] = true
		g[b][a] = true
	}
	return g
}

// Validate checks that every relation, join predicate and column predicate
// references objects that exist in the catalog and that the join graph is
// connected (so a plan joining all relations without cross products exists).
// A valid query costs no allocation.
func (q *Query) Validate(cat *schema.Catalog) error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("query %s: no relations", q.ID)
	}
	for i, r := range q.Relations {
		if _, ok := cat.Table(r); !ok {
			return fmt.Errorf("query %s: unknown relation %q", q.ID, r)
		}
		if slices.Contains(q.Relations[:i], r) {
			return fmt.Errorf("query %s: duplicate relation %q (self-joins are not supported)", q.ID, r)
		}
	}
	for _, j := range q.Joins {
		if err := q.validateJoinSide(cat, j, j.LeftTable, j.LeftColumn); err != nil {
			return err
		}
		if err := q.validateJoinSide(cat, j, j.RightTable, j.RightColumn); err != nil {
			return err
		}
	}
	for _, p := range q.Predicates {
		if !slices.Contains(q.Relations, p.Table) {
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
	if len(q.Relations) > 1 && !q.joinGraphConnected() {
		return fmt.Errorf("query %s: join graph is not connected", q.ID)
	}
	return nil
}

// validateJoinSide checks one side, table.column, of join predicate j.
func (q *Query) validateJoinSide(cat *schema.Catalog, j JoinPredicate, table, column string) error {
	if !slices.Contains(q.Relations, table) {
		return fmt.Errorf("query %s: join predicate %s references relation %q not in FROM", q.ID, j, table)
	}
	tab, _ := cat.Table(table)
	if _, ok := tab.Column(column); !ok {
		return fmt.Errorf("query %s: join predicate %s references unknown column %s.%s", q.ID, j, table, column)
	}
	return nil
}

// joinGraphConnected reports whether the join predicates connect all
// relations into one component (a union-find over relation positions). Join
// sides outside the relations are ignored; Validate rejects them first.
func (q *Query) joinGraphConnected() bool {
	n := len(q.Relations)
	var small [32]int
	parent := small[:0]
	if n <= len(small) {
		parent = small[:n]
	} else {
		parent = make([]int, n)
	}
	for i := range parent {
		parent[i] = i
	}
	root := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	components := n
	for _, j := range q.Joins {
		a, b := slices.Index(q.Relations, j.LeftTable), slices.Index(q.Relations, j.RightTable)
		if a < 0 || b < 0 {
			continue
		}
		if ra, rb := root(a), root(b); ra != rb {
			parent[ra] = rb
			components--
		}
	}
	return components <= 1
}

// SQL renders an approximate SQL text for the query (COUNT(*) aggregate), for
// logging and documentation purposes only; nothing parses it back.
func (q *Query) SQL() string {
	var buf [256]byte
	return string(q.AppendSQL(buf[:0]))
}

// AppendSQL appends q's SQL text to dst: relations in their stored order,
// then the join and column predicates in the order the query lists them.
func (q *Query) AppendSQL(dst []byte) []byte {
	dst = append(dst, "SELECT count(*) FROM "...)
	for i, r := range q.Relations {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, r...)
	}
	sep := " WHERE "
	for _, j := range q.Joins {
		dst = append(dst, sep...)
		sep = " AND "
		dst = j.appendText(dst)
	}
	for _, p := range q.Predicates {
		dst = append(dst, sep...)
		sep = " AND "
		dst = appendRef(dst, p.Table, p.Column)
		dst = append(dst, ' ')
		dst = append(dst, p.Op.String()...)
		dst = append(dst, ' ')
		if p.Value.Kind == schema.StringType {
			dst = append(dst, '\'')
			dst = p.Value.Append(dst)
			dst = append(dst, '\'')
		} else {
			dst = p.Value.Append(dst)
		}
	}
	return append(dst, ';')
}
