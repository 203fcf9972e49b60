package core

import (
	"hash/fnv"
	"math"
	"testing"

	"neo/internal/executor"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// parityScorer drives a search while holding every plan it is shown to the
// reference implementations, and scores plans from their encoding so the
// search goes where a cardinality-aware scorer would take it.
type parityScorer struct {
	t     *testing.T
	f     *feature.Featurizer
	enc   *feature.PlanEncoder
	opts  plan.ChildrenOptions
	bySig map[string][2]uint64
	byKey map[[2]uint64]string
	seen  int
}

func (s *parityScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		s.check(p)
		for _, tree := range s.enc.Encode(p) {
			tree.Walk(func(n *treeconv.Tree) {
				for j, v := range n.Data {
					out[i] += v * float64(1+j%7)
				}
			})
		}
	}
	return out
}

func (s *parityScorer) check(p *plan.Plan) {
	t := s.t
	s.seen++

	// O(1) facts against their recursive definitions.
	if p.IsComplete() != refIsComplete(p) {
		t.Fatalf("%s: IsComplete = %v, recursive definition says %v", p, p.IsComplete(), refIsComplete(p))
	}
	unspec := 0
	for _, r := range p.Roots {
		unspec += refNumUnspecified(r)
		if r.NumNodes() != refNumNodes(r) || r.NumUnspecified() != refNumUnspecified(r) {
			t.Fatalf("%s: root %s reports %d nodes / %d unspecified, recursive count %d / %d",
				p, r, r.NumNodes(), r.NumUnspecified(), refNumNodes(r), refNumUnspecified(r))
		}
	}
	if p.NumUnspecified() != unspec {
		t.Fatalf("%s: NumUnspecified = %d, recursive count %d", p, p.NumUnspecified(), unspec)
	}

	// Hash equality ⇔ Signature equality, over everything reached so far.
	sig, key := p.Signature(), p.Hash()
	if prev, ok := s.bySig[sig]; ok && prev != key {
		t.Fatalf("one signature, two hashes: %s", sig)
	}
	if prev, ok := s.byKey[key]; ok && prev != sig {
		t.Fatalf("hash collision: %s and %s", prev, sig)
	}
	s.bySig[sig], s.byKey[key] = key, sig
	reordered := &plan.Plan{Query: p.Query, Roots: make([]*plan.Node, len(p.Roots))}
	for i, r := range p.Roots {
		reordered.Roots[len(p.Roots)-1-i] = r
	}
	if reordered.Hash() != key {
		t.Fatalf("%s: Hash depends on root order", p)
	}

	// Same children, in the same order, with the same root order.
	got, want := p.Children(s.opts), refChildren(p, s.opts)
	if len(got) != len(want) {
		t.Fatalf("%s: %d children, reference has %d", p, len(got), len(want))
	}
	for i := range got {
		if !samePlan(got[i], want[i]) {
			t.Fatalf("%s: child %d is %s, reference has %s", p, i, got[i], want[i])
		}
	}

	// Memoised (search-long) and from-scratch encodings against the reference.
	ref := refEncodePlan(s.f, p)
	if !sameForest(s.enc.Encode(p), ref) {
		t.Fatalf("%s: memoised encoding differs from the reference", p)
	}
	if !sameForest(s.f.EncodePlan(p), ref) {
		t.Fatalf("%s: from-scratch encoding differs from the reference", p)
	}
}

// samePlan reports whether two plans render to the same String — same roots
// in the same order — without rendering them.
func samePlan(a, b *plan.Plan) bool {
	if len(a.Roots) != len(b.Roots) {
		return false
	}
	for i := range a.Roots {
		if !sameNode(a.Roots[i], b.Roots[i]) {
			return false
		}
	}
	return true
}

func sameNode(a, b *plan.Node) bool {
	if a.IsLeaf() || b.IsLeaf() {
		return a.IsLeaf() && b.IsLeaf() && a.Table == b.Table && a.Scan == b.Scan
	}
	return a.Join == b.Join && sameNode(a.Left, b.Left) && sameNode(a.Right, b.Right)
}

// TestSearchStatesMatchReference: on every state reached by 256-expansion
// searches over seeded random 3–7-relation queries — with and without cross
// products, with and without a catalog, all four encodings, histogram and
// true cardinality sources — shared-subtree Children, the structural hash,
// the O(1) node facts and the memoised plan encoder agree with the
// deep-copying, string-keyed, recursive reference implementations.
func TestSearchStatesMatchReference(t *testing.T) {
	rig := newRig(t, "postgres")
	nQueries := 20
	if testing.Short() {
		nQueries = 6
	}
	wl, err := workload.JOB(rig.db, nQueries, 97)
	if err != nil {
		t.Fatal(err)
	}
	sources := []feature.CardinalitySource{
		&feature.HistogramCardinality{Stats: rig.st},
		&feature.TrueCardinality{Counter: executor.New(rig.db)},
	}
	seen := 0
	for qi, q := range wl.Queries {
		// Cross products multiply the states an expansion reaches; the small
		// queries cover them.
		opts := search.Options{MaxExpansions: 256, AllowCrossProducts: qi%2 == 1 && len(q.Relations) <= 5}
		if qi%4 < 2 {
			opts.Catalog = rig.db.Catalog
		}
		f := &feature.Featurizer{Catalog: rig.db.Catalog, Encoding: feature.AllEncodings()[qi%4], Stats: rig.st, Cardinality: sources[qi/2%2]}
		s := &parityScorer{t: t, f: f, enc: f.NewPlanEncoder(q),
			opts:  plan.ChildrenOptions{Catalog: opts.Catalog, AllowCrossProducts: opts.AllowCrossProducts},
			bySig: map[string][2]uint64{}, byKey: map[[2]uint64]string{}}
		res, err := search.BestFirst(q, s, opts)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		s.check(res.Plan)
		seen += s.seen
	}
	if seen < 500*nQueries {
		t.Errorf("only %d states over %d queries: the searches did not exercise the search path", seen, nQueries)
	}
}

// weightsFNV fingerprints every weight of the live network.
func weightsFNV(n *Neo) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range n.Net.Params() {
		for _, v := range p.Value {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestRetrainWeightsBitIdenticalToReferenceEncoder: a retraining round whose
// samples come from one memoised encoder per experience entry leaves the
// network with exactly the weights a round over reference-encoded samples
// does.
func TestRetrainWeightsBitIdenticalToReferenceEncoder(t *testing.T) {
	build := func() *Neo {
		rig := newRig(t, "postgres")
		rig.feat.Cardinality = &feature.HistogramCardinality{Stats: rig.st}
		n := New(rig.eng, rig.feat, rig.neo.Config)
		if err := n.Bootstrap(rig.wl.Queries[:8], rig.expertFunc()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	product, reference := build(), build()
	if weightsFNV(product) != weightsFNV(reference) {
		t.Fatal("identically seeded bootstraps disagree; the comparison below would be meaningless")
	}
	before := weightsFNV(product)
	product.Retrain()

	// Retrain's body, with trainingSamples' loop encoding through the
	// reference encoder. The memoised encoder hands out one tree per distinct
	// subtree of an entry, and training convolves each distinct tree of a
	// shard once, so the reference trees are shared the same way: within an
	// entry, one tree per Node.Hash.
	n := reference
	var samples []valuenet.Sample
	encodings := make(map[string][]float64)
	for _, entry := range n.Experience.Entries() {
		qEnc, ok := encodings[entry.Query.ID]
		if !ok {
			qEnc = n.Featurizer.EncodeQuery(entry.Query)
			encodings[entry.Query.ID] = qEnc
		}
		shared := map[[2]uint64]*treeconv.Tree{}
		var share func(node *plan.Node, t *treeconv.Tree) *treeconv.Tree
		share = func(node *plan.Node, t *treeconv.Tree) *treeconv.Tree {
			if node == nil {
				return nil
			}
			if s, ok := shared[node.Hash()]; ok {
				return s
			}
			s := treeconv.NewNode(t.Data, share(node.Left, t.Left), share(node.Right, t.Right))
			shared[node.Hash()] = s
			return s
		}
		for _, partial := range constructionStates(entry.Plan) {
			target, ok := n.Experience.MinCostContaining(partial, n.cost)
			if !ok {
				target = n.cost(entry)
			}
			forest := refEncodePlan(n.Featurizer, partial)
			for i, root := range partial.Roots {
				forest[i] = share(root, forest[i])
			}
			samples = append(samples, valuenet.Sample{Query: qEnc, Plan: forest, Target: target})
		}
	}
	if n.Config.MaxTrainSamples > 0 && len(samples) > n.Config.MaxTrainSamples {
		t.Fatalf("%d samples exceed MaxTrainSamples: the reference round would need Retrain's shuffle too", len(samples))
	}
	n.Net.Train(samples, n.Config.TrainEpochs, n.Config.BatchSize, n.rng)

	if got, want := weightsFNV(product), weightsFNV(reference); got != want {
		t.Errorf("weights after Retrain hash to %#x, with reference-encoded samples %#x", got, want)
	}
	if weightsFNV(product) == before {
		t.Error("Retrain left the weights untouched; the comparison proves nothing")
	}
}

// TestSearchAllocationBudget keeps search bookkeeping from silently growing
// back: one 5-join best-first search with the real value-network scorer —
// frontier, Children, dedup, plan encoding, incremental scoring of thousands
// of plans — stays under an allocation count set just under 10 % above what
// it measures today (21 533, the same on every run: the search is
// deterministic; 27.0 k before netScorer kept one root buffer for a batch
// instead of one slice per plan). Deep-copied children, string signatures
// and from-scratch encoding cost ten times as much (269 k on this search).
// This is the only allocation gate on the search path, hence the tight bound.
func TestSearchAllocationBudget(t *testing.T) {
	rig := newRig(t, "postgres")
	if err := rig.neo.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	q := rig.wl.ByID("job-4b")
	if q == nil || len(q.Relations) != 6 {
		t.Fatalf("the rig's workload changed: job-4b is %v, want a 5-join query", q)
	}
	opts := search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 256}
	var res *search.Result
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if res, err = search.BestFirst(q, rig.neo.Scorer(q), opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d expansions, %d plans scored, %.0f allocations", res.Expansions, res.Evaluations, allocs)
	if res.Evaluations < 4000 {
		t.Fatalf("the search scored only %d plans; the budget below is for a search of thousands", res.Evaluations)
	}
	const budget = 23600
	if allocs > budget {
		t.Errorf("one search allocated %.0f times, budget %d", allocs, budget)
	}
}

// recordingScorer keeps every plan a search scores, in scoring order: plans
// is all of them, calls the same plans cut into the ScoreBatch calls they
// arrived in.
type recordingScorer struct {
	inner search.BatchScorer
	plans []*plan.Plan
	calls [][]*plan.Plan
}

func (s *recordingScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	start := len(s.plans)
	s.plans = append(s.plans, ps...)
	s.calls = append(s.calls, s.plans[start:len(s.plans):len(s.plans)])
	return s.inner.ScoreBatch(ps)
}

// BenchmarkSearchEncode times the plan encoding of one whole search — every
// plan the value network scores in a 256-expansion search on a 5-join query,
// in scoring order, with histogram cardinalities — the way netScorer does it
// (one encoder for the search) and the way a memo-free scorer does
// (EncodePlan per plan).
func BenchmarkSearchEncode(b *testing.B) {
	rig := newRig(b, "postgres")
	rig.feat.Cardinality = &feature.HistogramCardinality{Stats: rig.st}
	n := New(rig.eng, rig.feat, rig.neo.Config)
	if err := n.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		b.Fatal(err)
	}
	q := rig.wl.ByID("job-4b")
	rec := &recordingScorer{inner: n.Scorer(q)}
	if _, err := search.BestFirst(q, rec, search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 256}); err != nil {
		b.Fatal(err)
	}
	b.Run("memoised", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := rig.feat.NewPlanEncoder(q)
			for _, p := range rec.plans {
				enc.Encode(p)
			}
		}
		b.ReportMetric(float64(len(rec.plans)), "plans/op")
	})
	b.Run("from-scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range rec.plans {
				rig.feat.EncodePlan(p)
			}
		}
		b.ReportMetric(float64(len(rec.plans)), "plans/op")
	})
}
