// Experience serialization: queries (deduplicated by ID + structural
// signature, so the hundreds of entries a long-running optimizer accumulates
// per query share one stored query and one restored *query.Query pointer),
// plan trees, latencies and the per-query baselines.
package checkpoint

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"

	"neo/internal/core"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/storage"
	"neo/internal/wire"
)

func writeExperience(w io.Writer, entries []core.Entry, baselines map[string]float64) error {
	if len(entries) > maxEntries {
		return fmt.Errorf("checkpoint: %d experience entries exceed the loadable limit %d "+
			"(trim the experience before saving)", len(entries), maxEntries)
	}
	// Deduplicated query table, in first-appearance order. Deduplication
	// keys on ID *and* structural signature: entries of one query share a
	// single stored (and restored) *query.Query even when the producer built
	// a fresh Query value per request (neo-serve does), while two
	// structurally different queries under one caller-supplied ID stay two
	// stored queries — collapsing those would re-bind a plan to a query
	// whose relations it does not cover on restore.
	dedupKey := func(q *query.Query) string { return q.ID + "\x00" + q.Signature() }
	index := make(map[string]int)
	var queries []*query.Query
	for _, e := range entries {
		if _, ok := index[dedupKey(e.Query)]; !ok {
			index[dedupKey(e.Query)] = len(queries)
			queries = append(queries, e.Query)
		}
	}
	if err := wire.WriteU32(w, uint32(len(queries))); err != nil {
		return err
	}
	for _, q := range queries {
		if err := writeQuery(w, q); err != nil {
			return err
		}
	}
	if err := wire.WriteU32(w, uint32(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := wire.WriteU32(w, uint32(index[dedupKey(e.Query)])); err != nil {
			return err
		}
		if err := writePlan(w, e.Plan); err != nil {
			return err
		}
		if err := wire.WriteF64(w, e.Latency); err != nil {
			return err
		}
	}
	// Baselines, keyed by query ID (IDs outside the experience are legal —
	// evaluation-only queries can have baselines too). Sorted so the file is
	// deterministic.
	ids := make([]string, 0, len(baselines))
	for id := range baselines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if err := wire.WriteU32(w, uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := wire.WriteString(w, id); err != nil {
			return err
		}
		if err := wire.WriteF64(w, baselines[id]); err != nil {
			return err
		}
	}
	return nil
}

// Count bounds for the experience section: far above anything a real system
// accumulates, low enough that a bit-rotted or crafted count prefix fails
// with a clean error instead of a multi-gigabyte allocation. (Section CRCs
// catch random corruption; these bounds are the second line of defence.)
const (
	maxQueries  = 1 << 20
	maxEntries  = 1 << 22
	maxPerQuery = 1 << 16 // relations / joins / predicates per query
)

// readCount reads a u32 count prefix and validates it against a bound and
// against the bytes left in the section (every counted element takes at
// least one), so a count alone never sizes an allocation.
func readCount(r *bytes.Reader, what string, bound uint32) (int, error) {
	n, err := wire.ReadU32(r)
	if err != nil {
		return 0, err
	}
	if n > bound || int(n) > r.Len() {
		return 0, fmt.Errorf("%s count %d exceeds limit %d or the %d bytes left (corrupt count prefix?)", what, n, bound, r.Len())
	}
	return int(n), nil
}

func readExperience(r *bytes.Reader) ([]core.Entry, map[string]float64, error) {
	nq, err := readCount(r, "query", maxQueries)
	if err != nil {
		return nil, nil, err
	}
	queries := make([]*query.Query, nq)
	for i := range queries {
		if queries[i], err = readQuery(r); err != nil {
			return nil, nil, err
		}
	}
	ne, err := readCount(r, "entry", maxEntries)
	if err != nil {
		return nil, nil, err
	}
	entries := make([]core.Entry, ne)
	for i := range entries {
		qi, err := wire.ReadU32(r)
		if err != nil {
			return nil, nil, err
		}
		if int(qi) >= len(queries) {
			return nil, nil, fmt.Errorf("entry %d references query %d of %d", i, qi, len(queries))
		}
		q := queries[qi]
		p, err := readPlan(r, q)
		if err != nil {
			return nil, nil, err
		}
		lat, err := readLatency(r)
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		entries[i] = core.Entry{Query: q, Plan: p, Latency: lat}
	}
	nb, err := readCount(r, "baseline", maxEntries)
	if err != nil {
		return nil, nil, err
	}
	baselines := make(map[string]float64, nb)
	for i := 0; i < nb; i++ {
		id, err := wire.ReadString(r)
		if err != nil {
			return nil, nil, err
		}
		if baselines[id], err = readLatency(r); err != nil {
			return nil, nil, fmt.Errorf("baseline of %q: %w", id, err)
		}
	}
	return entries, baselines, nil
}

// readLatency reads an execution latency or a baseline: a finite,
// non-negative number. The bytes come from the network (a replica's snapshot
// download, a trainer's POST /experience) and the value becomes a training
// target: a single NaN makes the target transform's mean — and with it every
// target, every gradient and, one optimizer step later, every weight — NaN.
func readLatency(r *bytes.Reader) (float64, error) {
	v, err := wire.ReadF64(r)
	if err != nil {
		return 0, err
	}
	if !(v >= 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("latency %v is not a finite non-negative number", v)
	}
	return v, nil
}

func writeQuery(w io.Writer, q *query.Query) error {
	if err := wire.WriteString(w, q.ID); err != nil {
		return err
	}
	if err := wire.WriteU32(w, uint32(len(q.Relations))); err != nil {
		return err
	}
	for _, rel := range q.Relations {
		if err := wire.WriteString(w, rel); err != nil {
			return err
		}
	}
	if err := wire.WriteU32(w, uint32(len(q.Joins))); err != nil {
		return err
	}
	for _, j := range q.Joins {
		for _, s := range []string{j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn} {
			if err := wire.WriteString(w, s); err != nil {
				return err
			}
		}
	}
	if err := wire.WriteU32(w, uint32(len(q.Predicates))); err != nil {
		return err
	}
	for _, p := range q.Predicates {
		if err := wire.WriteString(w, p.Table); err != nil {
			return err
		}
		if err := wire.WriteString(w, p.Column); err != nil {
			return err
		}
		if err := wire.WriteU8(w, uint8(p.Op)); err != nil {
			return err
		}
		if err := writeValue(w, p.Value); err != nil {
			return err
		}
	}
	return nil
}

func readQuery(r *bytes.Reader) (*query.Query, error) {
	id, err := wire.ReadString(r)
	if err != nil {
		return nil, err
	}
	nr, err := readCount(r, "relation", maxPerQuery)
	if err != nil {
		return nil, err
	}
	rels := make([]string, nr)
	for i := range rels {
		if rels[i], err = wire.ReadString(r); err != nil {
			return nil, err
		}
	}
	nj, err := readCount(r, "join", maxPerQuery)
	if err != nil {
		return nil, err
	}
	joins := make([]query.JoinPredicate, nj)
	for i := range joins {
		var parts [4]string
		for k := range parts {
			if parts[k], err = wire.ReadString(r); err != nil {
				return nil, err
			}
		}
		joins[i] = query.JoinPredicate{
			LeftTable: parts[0], LeftColumn: parts[1],
			RightTable: parts[2], RightColumn: parts[3],
		}
	}
	np, err := readCount(r, "predicate", maxPerQuery)
	if err != nil {
		return nil, err
	}
	preds := make([]query.Predicate, np)
	for i := range preds {
		table, err := wire.ReadString(r)
		if err != nil {
			return nil, err
		}
		column, err := wire.ReadString(r)
		if err != nil {
			return nil, err
		}
		op, err := wire.ReadU8(r)
		if err != nil {
			return nil, err
		}
		val, err := readValue(r)
		if err != nil {
			return nil, err
		}
		preds[i] = query.Predicate{Table: table, Column: column, Op: query.CmpOp(op), Value: val}
	}
	return query.New(id, rels, joins, preds), nil
}

func writeValue(w io.Writer, v storage.Value) error {
	if err := wire.WriteU8(w, uint8(v.Kind)); err != nil {
		return err
	}
	if err := wire.WriteI64(w, v.Int); err != nil {
		return err
	}
	return wire.WriteString(w, v.Str)
}

func readValue(r io.Reader) (storage.Value, error) {
	kind, err := wire.ReadU8(r)
	if err != nil {
		return storage.Value{}, err
	}
	i, err := wire.ReadI64(r)
	if err != nil {
		return storage.Value{}, err
	}
	s, err := wire.ReadString(r)
	if err != nil {
		return storage.Value{}, err
	}
	return storage.Value{Kind: schema.ColType(kind), Int: i, Str: s}, nil
}

// Node tags in the plan-tree encoding.
const (
	nodeLeaf = 0
	nodeJoin = 1
)

func writePlan(w io.Writer, p *plan.Plan) error {
	if err := wire.WriteU32(w, uint32(len(p.Roots))); err != nil {
		return err
	}
	for _, root := range p.Roots {
		if err := writeNode(w, root); err != nil {
			return err
		}
	}
	return nil
}

func readPlan(r io.Reader, q *query.Query) (*plan.Plan, error) {
	n, err := wire.ReadU32(r)
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("plan declares %d roots", n)
	}
	roots := make([]*plan.Node, n)
	for i := range roots {
		if roots[i], err = readNode(r, 0); err != nil {
			return nil, err
		}
	}
	return &plan.Plan{Query: q, Roots: roots}, nil
}

func writeNode(w io.Writer, n *plan.Node) error {
	if n.IsLeaf() {
		if err := wire.WriteU8(w, nodeLeaf); err != nil {
			return err
		}
		if err := wire.WriteU8(w, uint8(n.Scan)); err != nil {
			return err
		}
		return wire.WriteString(w, n.Table)
	}
	if err := wire.WriteU8(w, nodeJoin); err != nil {
		return err
	}
	if err := wire.WriteU8(w, uint8(n.Join)); err != nil {
		return err
	}
	if err := writeNode(w, n.Left); err != nil {
		return err
	}
	return writeNode(w, n.Right)
}

// maxPlanDepth bounds recursion while reading plan trees, so a corrupted
// stream cannot drive unbounded stack growth.
const maxPlanDepth = 512

func readNode(r io.Reader, depth int) (*plan.Node, error) {
	if depth > maxPlanDepth {
		return nil, fmt.Errorf("plan tree deeper than %d", maxPlanDepth)
	}
	tag, err := wire.ReadU8(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case nodeLeaf:
		scan, err := wire.ReadU8(r)
		if err != nil {
			return nil, err
		}
		table, err := wire.ReadString(r)
		if err != nil {
			return nil, err
		}
		return plan.Leaf(table, plan.ScanType(scan)), nil
	case nodeJoin:
		op, err := wire.ReadU8(r)
		if err != nil {
			return nil, err
		}
		left, err := readNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		right, err := readNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		return plan.Join2(plan.JoinOp(op), left, right), nil
	default:
		return nil, fmt.Errorf("unknown plan-node tag %d", tag)
	}
}
