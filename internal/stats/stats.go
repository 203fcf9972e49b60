// Package stats implements the classical statistics layer of the simulated
// engines: per-column equi-width histograms and distinct counts, and the
// textbook selectivity / join-cardinality estimation formulas that assume
// uniformity, independence and the principle of inclusion.
//
// These deliberately simplistic estimates play two roles in the
// reproduction: they feed the expert (Selinger-style) optimizers, and they
// provide the Histogram featurization of Section 3.2. Their errors on the
// correlated IMDB profile are what Neo learns to overcome.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/storage"
)

// DefaultHistogramBuckets is the number of buckets in each column histogram.
const DefaultHistogramBuckets = 20

// topValuesCap bounds how many most-common string values a column's
// statistics retain.
const topValuesCap = 64

// ColumnStats summarises one column.
type ColumnStats struct {
	Table    string
	Column   string
	Type     schema.ColType
	NumRows  int
	Distinct int
	// MinInt/MaxInt bound integer columns (undefined for string columns).
	MinInt, MaxInt int64
	// Buckets is an equi-width histogram over [MinInt, MaxInt] for integer
	// columns; Buckets[i] counts rows falling in bucket i.
	Buckets []int
	// TopValues maps the most common string values to their frequencies.
	// Only populated for string columns (capped at topValuesCap entries,
	// highest frequencies first; ties kept deterministically by value).
	TopValues map[string]int
}

// TableStats summarises one table.
type TableStats struct {
	Table   string
	NumRows int
	Columns map[string]*ColumnStats
}

// Stats holds statistics for an entire database.
type Stats struct {
	tables map[string]*TableStats
}

// Build scans the database once and constructs statistics for every column.
func Build(db *storage.Database) (*Stats, error) {
	s := &Stats{tables: make(map[string]*TableStats)}
	for _, ts := range db.Catalog.Tables() {
		tab := db.Table(ts.Name)
		tstats := &TableStats{Table: ts.Name, NumRows: tab.NumRows(), Columns: make(map[string]*ColumnStats)}
		for _, col := range ts.Columns {
			cs, err := buildColumn(tab, ts.Name, col)
			if err != nil {
				return nil, err
			}
			tstats.Columns[col.Name] = cs
		}
		s.tables[ts.Name] = tstats
	}
	return s, nil
}

func buildColumn(tab *storage.Table, table string, col schema.Column) (*ColumnStats, error) {
	c := tab.Column(col.Name)
	if c == nil {
		return nil, fmt.Errorf("stats: missing column %s.%s", table, col.Name)
	}
	cs := &ColumnStats{Table: table, Column: col.Name, Type: col.Type, NumRows: c.Len()}
	cs.Distinct = tab.DistinctCount(col.Name)
	if col.Type == schema.IntType {
		if len(c.Ints) > 0 {
			cs.MinInt, cs.MaxInt = c.Ints[0], c.Ints[0]
			for _, v := range c.Ints {
				if v < cs.MinInt {
					cs.MinInt = v
				}
				if v > cs.MaxInt {
					cs.MaxInt = v
				}
			}
		}
		cs.Buckets = make([]int, DefaultHistogramBuckets)
		width := float64(cs.MaxInt-cs.MinInt+1) / float64(DefaultHistogramBuckets)
		if width <= 0 {
			width = 1
		}
		for _, v := range c.Ints {
			b := int(float64(v-cs.MinInt) / width)
			if b >= DefaultHistogramBuckets {
				b = DefaultHistogramBuckets - 1
			}
			if b < 0 {
				b = 0
			}
			cs.Buckets[b]++
		}
	} else {
		counts := make(map[string]int)
		for _, v := range c.Strs {
			counts[v]++
		}
		// Keep the actual most common values (the documented contract).
		// Ranging over the counts map here would keep a random 64-value
		// subset instead — which made string selectivities, and everything
		// downstream of them (expert plans, featurizations, training), vary
		// between identically-seeded builds. Ties break on the value so the
		// kept set is fully deterministic.
		type valueCount struct {
			value string
			n     int
		}
		all := make([]valueCount, 0, len(counts))
		for v, n := range counts {
			all = append(all, valueCount{v, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].value < all[j].value
		})
		if len(all) > topValuesCap {
			all = all[:topValuesCap]
		}
		cs.TopValues = make(map[string]int, len(all))
		for _, e := range all {
			cs.TopValues[e.value] = e.n
		}
	}
	return cs, nil
}

// Table returns statistics for the named table, or nil.
func (s *Stats) Table(name string) *TableStats { return s.tables[name] }

// Column returns statistics for the named column, or nil.
func (s *Stats) Column(table, column string) *ColumnStats {
	t := s.tables[table]
	if t == nil {
		return nil
	}
	return t.Columns[column]
}

// TableRows returns the row count of the named table (0 if unknown).
func (s *Stats) TableRows(table string) float64 {
	t := s.tables[table]
	if t == nil {
		return 0
	}
	return float64(t.NumRows)
}

// Selectivity estimates the fraction of rows of p.Table that satisfy p,
// using histogram buckets for range predicates on integers, top-value
// frequencies for string equality, and uniformity assumptions otherwise.
// The result is clamped to (0, 1].
func (s *Stats) Selectivity(p query.Predicate) float64 {
	cs := s.Column(p.Table, p.Column)
	if cs == nil || cs.NumRows == 0 {
		return 1.0
	}
	sel := 1.0
	switch {
	case cs.Type == schema.IntType && p.Value.Kind == schema.IntType:
		sel = s.intSelectivity(cs, p)
	case cs.Type == schema.StringType:
		sel = s.stringSelectivity(cs, p)
	}
	return clampSel(sel)
}

func (s *Stats) intSelectivity(cs *ColumnStats, p query.Predicate) float64 {
	n := float64(cs.NumRows)
	switch p.Op {
	case query.Eq:
		if cs.Distinct == 0 {
			return 1.0
		}
		return 1.0 / float64(cs.Distinct)
	case query.Ne:
		if cs.Distinct == 0 {
			return 1.0
		}
		return 1.0 - 1.0/float64(cs.Distinct)
	case query.Lt, query.Le, query.Gt, query.Ge:
		frac := s.histogramFractionBelow(cs, p.Value.Int)
		switch p.Op {
		case query.Lt, query.Le:
			return frac
		default:
			return 1.0 - frac
		}
	case query.Like:
		return 0.1
	}
	_ = n
	return 1.0
}

// histogramFractionBelow estimates the fraction of rows with value < v
// using linear interpolation within the containing bucket.
func (s *Stats) histogramFractionBelow(cs *ColumnStats, v int64) float64 {
	if cs.NumRows == 0 || len(cs.Buckets) == 0 {
		return 0.5
	}
	if v <= cs.MinInt {
		return 0
	}
	if v > cs.MaxInt {
		return 1
	}
	width := float64(cs.MaxInt-cs.MinInt+1) / float64(len(cs.Buckets))
	if width <= 0 {
		width = 1
	}
	pos := float64(v-cs.MinInt) / width
	bucket := int(pos)
	if bucket >= len(cs.Buckets) {
		bucket = len(cs.Buckets) - 1
	}
	below := 0
	for i := 0; i < bucket; i++ {
		below += cs.Buckets[i]
	}
	within := (pos - float64(bucket)) * float64(cs.Buckets[bucket])
	return (float64(below) + within) / float64(cs.NumRows)
}

func (s *Stats) stringSelectivity(cs *ColumnStats, p query.Predicate) float64 {
	switch p.Op {
	case query.Eq:
		if n, ok := cs.TopValues[p.Value.Str]; ok {
			return float64(n) / float64(cs.NumRows)
		}
		if cs.Distinct > 0 {
			return 1.0 / float64(cs.Distinct)
		}
		return 0.01
	case query.Ne:
		return 1.0 - s.stringSelectivity(cs, query.Predicate{Table: p.Table, Column: p.Column, Op: query.Eq, Value: p.Value})
	case query.Like:
		// PostgreSQL-style fixed guess for pattern matches; deliberately
		// ignorant of the actual pattern (this is a major error source the
		// paper calls out).
		return 0.05
	default:
		return 0.33
	}
}

// ScanSelectivity estimates the combined selectivity of a conjunction of
// predicates on one table under the independence assumption.
func (s *Stats) ScanSelectivity(table string, preds []query.Predicate) float64 {
	sel := 1.0
	for _, p := range preds {
		if p.Table != table {
			continue
		}
		sel *= s.Selectivity(p)
	}
	return clampSel(sel)
}

// EstimateScanRows estimates the output cardinality of scanning a table with
// the given predicates.
func (s *Stats) EstimateScanRows(table string, preds []query.Predicate) float64 {
	return math.Max(1, s.TableRows(table)*s.ScanSelectivity(table, preds))
}

// EstimateJoinRows estimates the cardinality of an equi-join between two
// inputs using the textbook formula |L|·|R| / max(d(L.k), d(R.k)) (principle
// of inclusion), where d() are distinct counts of the join columns.
func (s *Stats) EstimateJoinRows(leftRows, rightRows float64, j query.JoinPredicate) float64 {
	dl := s.distinctOrDefault(j.LeftTable, j.LeftColumn)
	dr := s.distinctOrDefault(j.RightTable, j.RightColumn)
	d := math.Max(dl, dr)
	if d < 1 {
		d = 1
	}
	est := leftRows * rightRows / d
	return math.Max(1, est)
}

func (s *Stats) distinctOrDefault(table, column string) float64 {
	cs := s.Column(table, column)
	if cs == nil || cs.Distinct == 0 {
		return 1
	}
	return float64(cs.Distinct)
}

// ErrorModel perturbs cardinality estimates by a configurable number of
// orders of magnitude; it implements the error-injection protocol of the
// paper's Figure 14 robustness experiment.
type ErrorModel struct {
	// OrdersOfMagnitude is the maximum absolute log10 error to inject
	// (e.g. 2 means estimates may be off by up to 100x in either direction).
	OrdersOfMagnitude float64
	rng               *rand.Rand
}

// NewErrorModel creates an error model with the given magnitude and seed.
func NewErrorModel(orders float64, seed int64) *ErrorModel {
	return &ErrorModel{OrdersOfMagnitude: orders, rng: rand.New(rand.NewSource(seed))}
}

// Perturb applies a random multiplicative error of up to the configured
// number of orders of magnitude to the estimate. Not safe for concurrent use.
func (e *ErrorModel) Perturb(estimate float64) float64 {
	if e == nil || e.OrdersOfMagnitude == 0 {
		return estimate
	}
	exp := (e.rng.Float64()*2 - 1) * e.OrdersOfMagnitude
	return math.Max(1, estimate*math.Pow(10, exp))
}

func clampSel(s float64) float64 {
	if s <= 0 || math.IsNaN(s) {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}
