// Package query models the project-select-equijoin-aggregate queries that
// Neo optimizes: the set of base relations, the equi-join predicates
// connecting them (the join graph), and the single-table column predicates.
//
// This is the "query-dependent but plan-independent" information of
// Section 3 of the paper; package feature turns it into the query-level
// encoding.
package query

import (
	"fmt"
	"sort"
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
		return strings.Contains(strings.ToLower(v.String()), strings.ToLower(p.Value.String()))
	default:
		return false
	}
}

// JoinPredicate is an equi-join predicate left.column = right.column.
type JoinPredicate struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// String implements fmt.Stringer.
func (j JoinPredicate) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
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
	// New canonicalises relation order, but literal Query construction can
	// bypass it — sort a copy so the signature never depends on it.
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
		// Quote the value: raw values may contain the separator characters
		// used below, and a collision here would make a plan cache serve the
		// wrong plan.
		preds[i] = fmt.Sprintf("%s.%s %s %q", p.Table, p.Column, p.Op, p.Value.String())
	}
	sort.Strings(preds)
	return strings.Join(rels, ",") + "|" + strings.Join(joins, "&") + "|" + strings.Join(preds, "&")
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
func (q *Query) Validate(cat *schema.Catalog) error {
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
				return fmt.Errorf("query %s: join predicate %s references relation %q not in FROM", q.ID, j, side.t)
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
	if len(q.Relations) > 1 && !q.joinGraphConnected() {
		return fmt.Errorf("query %s: join graph is not connected", q.ID)
	}
	return nil
}

// joinGraphConnected reports whether every relation is reachable from the
// first relation via join predicates.
func (q *Query) joinGraphConnected() bool {
	if len(q.Relations) == 0 {
		return true
	}
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
	return len(visited) == len(q.Relations)
}

// SQL renders an approximate SQL text for the query (COUNT(*) aggregate), for
// logging and documentation purposes only; nothing parses it back.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT count(*) FROM ")
	b.WriteString(strings.Join(q.Relations, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Predicates {
		val := p.Value.String()
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
