package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"neo/internal/route"
	"neo/internal/schema"
	"neo/internal/storage"
	"neo/internal/workload"
	"neo/pkg/neo"
)

// Every random stream the harness draws is derived from -seed and a fixed
// purpose tag, so a request sequence, its Zipf draws and its Poisson gaps
// are each a pure function of the seed and independent of one another.
const (
	streamPool = iota + 1
	streamZipf
	streamPoisson
	streamSample
	streamStride // purposes repeat at this stride for numbered sub-streams
)

func stream(seed int64, purpose int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(purpose)))
}

// item is one generated query in both of its forms: the wire spec a client
// sends and the query the replica builds from it (ID = structural signature,
// exactly as serve.buildQuery assigns it), plus its routing class under a
// fresh auto router.
type item struct {
	spec     neo.QuerySpec
	query    *neo.Query
	fastpath bool
}

func specOf(q *neo.Query) neo.QuerySpec {
	s := neo.QuerySpec{ID: q.ID, Relations: q.Relations}
	for _, j := range q.Joins {
		s.Joins = append(s.Joins, neo.JoinSpec{
			Left:  j.LeftTable + "." + j.LeftColumn,
			Right: j.RightTable + "." + j.RightColumn,
		})
	}
	for _, p := range q.Predicates {
		var raw []byte
		if p.Value.Kind == schema.IntType {
			raw, _ = json.Marshal(p.Value.Int)
		} else {
			raw, _ = json.Marshal(p.Value.Str)
		}
		s.Predicates = append(s.Predicates, neo.PredicateSpec{
			Column: p.Table + "." + p.Column,
			Op:     strings.ToLower(p.Op.String()),
			Value:  raw,
		})
	}
	return s
}

// genItems generates n structurally distinct JOB-like queries over db,
// drawing workload.JOB batches from the seed until it has enough. bucket
// assigns each candidate a stratum in [0, buckets) or rejects it (-1); the
// result interleaves the strata round-robin, so any prefix of it has the
// same composition whatever the seed. The class of each query is what a
// fresh auto router decides, which is how the serving workloads know
// hit/fast-path/search by construction.
func genItems(db *storage.Database, n int, seed int64, buckets int, bucket func(q *neo.Query, fastpath bool) int) ([]item, error) {
	rng := stream(seed, streamPool)
	router := route.New(route.Auto, route.Policy{})
	seen := make(map[string]bool)
	strata := make([][]item, buckets)
	per := (n + buckets - 1) / buckets
	for round, filled := 0, 0; filled < buckets; round++ {
		if round > 400 {
			return nil, fmt.Errorf("gen: could not fill %d strata of %d distinct queries in %d batches", buckets, per, round)
		}
		wl, err := workload.JOB(db, 256, rng.Int63())
		if err != nil {
			return nil, err
		}
		for _, q := range wl.Queries {
			sig := q.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			q.ID = sig
			fast := router.Decide(q).Fastpath
			b := bucket(q, fast)
			if b < 0 || len(strata[b]) == per {
				continue
			}
			strata[b] = append(strata[b], item{spec: specOf(q), query: q, fastpath: fast})
			if len(strata[b]) == per {
				filled++
			}
		}
	}
	out := make([]item, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, strata[i%buckets][i/buckets])
	}
	return out, nil
}

// zipfSequence draws n pool indices Zipf(s)-distributed over [0, pool).
func zipfSequence(seed int64, s float64, pool, n int) []int {
	z := rand.NewZipf(stream(seed, streamZipf), s, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// poissonSchedule returns the due times (offsets from the window start) of a
// Poisson arrival process of the given rate, up to the duration. Each window
// of a run draws its own stream.
func poissonSchedule(seed int64, window int, rate float64, d time.Duration) []time.Duration {
	rng := stream(seed, streamPoisson+streamStride*window)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
