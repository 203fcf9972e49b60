package feature

import (
	"math"
	"strings"
	"testing"

	"neo/internal/datagen"
	"neo/internal/embedding"
	"neo/internal/executor"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/stats"
	"neo/internal/storage"
	"neo/internal/treeconv"
)

func setup(t testing.TB) (*storage.Database, *stats.Stats) {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, st
}

func loveQuery() *query.Query {
	return query.New("love",
		[]string{"title", "movie_keyword", "keyword"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "keyword", Column: "keyword", Op: query.Eq, Value: storage.StringValue("love")},
			{Table: "title", Column: "production_year", Op: query.Gt, Value: storage.IntValue(2000)},
		})
}

func TestQueryVectorSizesPerEncoding(t *testing.T) {
	db, st := setup(t)
	nRel := db.Catalog.NumRelations()
	nAttr := db.Catalog.NumAttributes()
	joinTri := nRel * (nRel - 1) / 2

	oneHot := &Featurizer{Catalog: db.Catalog, Encoding: OneHot}
	if got := oneHot.QueryVectorSize(); got != joinTri+nAttr {
		t.Errorf("1-hot size = %d, want %d", got, joinTri+nAttr)
	}
	hist := &Featurizer{Catalog: db.Catalog, Encoding: Histogram, Stats: st}
	if got := hist.QueryVectorSize(); got != joinTri+nAttr {
		t.Errorf("histogram size = %d, want %d", got, joinTri+nAttr)
	}
	model := embedding.Train([][]string{{"a", "b"}}, embedding.Config{Dim: 8, Epochs: 1, NegativeSamples: 1, LearningRate: 0.05, MinCount: 1, Seed: 1})
	rv := &Featurizer{Catalog: db.Catalog, Encoding: RVector, Embedding: model}
	wantBlock := 7 + 1 + 8 + 1
	if got := rv.QueryVectorSize(); got != joinTri+nAttr*wantBlock {
		t.Errorf("r-vector size = %d, want %d", got, joinTri+nAttr*wantBlock)
	}
	// Encoded vectors match the declared sizes.
	for _, f := range []*Featurizer{oneHot, hist, rv} {
		enc := f.EncodeQuery(loveQuery())
		if len(enc) != f.QueryVectorSize() {
			t.Errorf("%s: encoded length %d != declared %d", f, len(enc), f.QueryVectorSize())
		}
	}
}

func TestJoinGraphUpperTriangle(t *testing.T) {
	db, _ := setup(t)
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot}
	q := loveQuery()
	enc := f.EncodeQuery(q)
	nRel := db.Catalog.NumRelations()
	joinTri := nRel * (nRel - 1) / 2
	ones := 0
	for _, v := range enc[:joinTri] {
		if v == 1 {
			ones++
		}
	}
	if ones != 2 {
		t.Errorf("join-graph encoding has %d edges, want 2", ones)
	}
	// A query with no joins has an all-zero join-graph section.
	single := query.New("s", []string{"title"}, nil, nil)
	enc2 := f.EncodeQuery(single)
	for i, v := range enc2[:joinTri] {
		if v != 0 {
			t.Errorf("join entry %d should be 0 for a single-table query", i)
		}
	}
}

func TestOneHotPredicateMarks(t *testing.T) {
	db, _ := setup(t)
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot}
	q := loveQuery()
	enc := f.EncodeQuery(q)
	joinTri := db.Catalog.NumRelations() * (db.Catalog.NumRelations() - 1) / 2
	predPart := enc[joinTri:]
	kwIdx := db.Catalog.AttributeIndex("keyword", "keyword")
	yearIdx := db.Catalog.AttributeIndex("title", "production_year")
	kindIdx := db.Catalog.AttributeIndex("title", "kind")
	if predPart[kwIdx] != 1 || predPart[yearIdx] != 1 {
		t.Errorf("predicated attributes should be 1")
	}
	if predPart[kindIdx] != 0 {
		t.Errorf("non-predicated attribute should be 0")
	}
}

func TestHistogramEncodingUsesSelectivity(t *testing.T) {
	db, st := setup(t)
	f := &Featurizer{Catalog: db.Catalog, Encoding: Histogram, Stats: st}
	q := loveQuery()
	enc := f.EncodeQuery(q)
	joinTri := db.Catalog.NumRelations() * (db.Catalog.NumRelations() - 1) / 2
	kwIdx := db.Catalog.AttributeIndex("keyword", "keyword")
	sel := enc[joinTri+kwIdx]
	if sel <= 0 || sel >= 1 {
		t.Errorf("histogram entry should be a selectivity in (0,1), got %f", sel)
	}
	want := st.Selectivity(q.Predicates[0])
	if math.Abs(sel-want) > 1e-9 {
		t.Errorf("selectivity %f != stats %f", sel, want)
	}
}

func TestRVectorEncodingCarriesEmbedding(t *testing.T) {
	db, _ := setup(t)
	sentences := embedding.DenormalizedSentences(db, 20)
	model := embedding.Train(sentences, embedding.Config{Dim: 8, Epochs: 2, NegativeSamples: 2, LearningRate: 0.05, MinCount: 1, Seed: 2})
	f := &Featurizer{Catalog: db.Catalog, Encoding: RVector, Embedding: model}
	q := loveQuery()
	enc := f.EncodeQuery(q)
	joinTri := db.Catalog.NumRelations() * (db.Catalog.NumRelations() - 1) / 2
	block := 7 + 1 + 8 + 1
	kwIdx := db.Catalog.AttributeIndex("keyword", "keyword")
	kwBlock := enc[joinTri+kwIdx*block : joinTri+(kwIdx+1)*block]
	// The equality-operator slot is set.
	if kwBlock[int(query.Eq)] != 1 {
		t.Errorf("Eq operator slot should be 1: %v", kwBlock)
	}
	// The matched-word count is positive (the token exists in the corpus).
	if kwBlock[7] <= 0 {
		t.Errorf("matched-word count should be positive: %v", kwBlock)
	}
	// The embedding portion is not all zeros.
	nonzero := false
	for _, v := range kwBlock[8 : 8+8] {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Errorf("embedding portion should be non-zero: %v", kwBlock)
	}
	// An attribute without a predicate has an all-zero block.
	kindIdx := db.Catalog.AttributeIndex("title", "kind")
	kindBlock := enc[joinTri+kindIdx*block : joinTri+(kindIdx+1)*block]
	for _, v := range kindBlock {
		if v != 0 {
			t.Errorf("unpredicated block should be zero: %v", kindBlock)
		}
	}
}

func TestRVectorLikePredicateUsesMatchMean(t *testing.T) {
	db, _ := setup(t)
	model := embedding.Train(embedding.Sentences(db), embedding.Config{Dim: 8, Epochs: 1, NegativeSamples: 2, LearningRate: 0.05, MinCount: 1, Seed: 3})
	f := &Featurizer{Catalog: db.Catalog, Encoding: RVector, Embedding: model}
	q := query.New("like", []string{"movie_info"}, nil, []query.Predicate{
		{Table: "movie_info", Column: "info", Op: query.Like, Value: storage.StringValue("roman")},
	})
	enc := f.EncodeQuery(q)
	joinTri := db.Catalog.NumRelations() * (db.Catalog.NumRelations() - 1) / 2
	block := 7 + 1 + 8 + 1
	idx := db.Catalog.AttributeIndex("movie_info", "info")
	b := enc[joinTri+idx*block : joinTri+(idx+1)*block]
	if b[int(query.Like)] != 1 {
		t.Errorf("Like operator slot should be set")
	}
	if b[7] <= 0 {
		t.Errorf("pattern should match at least one token (romance)")
	}
}

func TestPlanEncodingStructure(t *testing.T) {
	db, _ := setup(t)
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot}
	q := loveQuery()
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin,
			plan.Join2(plan.MergeJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan)),
			plan.Leaf("keyword", plan.IndexScan)),
	}}
	trees := f.EncodePlan(p)
	if len(trees) != 1 {
		t.Fatalf("expected one tree, got %d", len(trees))
	}
	root := trees[0]
	if root.NumNodes() != 5 {
		t.Errorf("encoded tree has %d nodes, want 5", root.NumNodes())
	}
	size := f.PlanVectorSize()
	root.Walk(func(n *treeconv.Tree) {
		if len(n.Data) != size {
			t.Errorf("node vector length %d, want %d", len(n.Data), size)
		}
	})
}

func TestPlanEncodingVectors(t *testing.T) {
	db, _ := setup(t)
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot}
	q := loveQuery()
	mk := plan.Leaf("movie_keyword", plan.TableScan)
	ti := plan.Leaf("title", plan.IndexScan)
	un := plan.Leaf("keyword", plan.UnspecifiedScan)
	join := plan.Join2(plan.MergeJoin, mk, ti)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{join, un}}
	trees := f.EncodePlan(p)
	if len(trees) != 2 {
		t.Fatalf("expected a two-root forest, got %d trees", len(trees))
	}
	size := f.PlanVectorSize()
	wantSize := plan.NumJoinOps + 2*db.Catalog.NumRelations()
	if size != wantSize {
		t.Errorf("PlanVectorSize = %d, want %d", size, wantSize)
	}

	joinVec := trees[0].Data
	if len(joinVec) != size {
		t.Fatalf("join vector length %d, want %d", len(joinVec), size)
	}
	if joinVec[int(plan.MergeJoin)] != 1 || joinVec[int(plan.HashJoin)] != 0 {
		t.Errorf("join operator one-hot wrong: %v", joinVec[:plan.NumJoinOps])
	}
	mkBase := plan.NumJoinOps + 2*db.Catalog.TableIndex("movie_keyword")
	tiBase := plan.NumJoinOps + 2*db.Catalog.TableIndex("title")
	if joinVec[mkBase] != 1 || joinVec[mkBase+1] != 0 {
		t.Errorf("movie_keyword should be marked as table scan in the union")
	}
	if joinVec[tiBase] != 0 || joinVec[tiBase+1] != 1 {
		t.Errorf("title should be marked as index scan in the union")
	}

	// The unspecified scan sets both slots (as in the paper: U(B) -> 1 in
	// both table and index columns).
	unVec := trees[1].Data
	kwBase := plan.NumJoinOps + 2*db.Catalog.TableIndex("keyword")
	if unVec[kwBase] != 1 || unVec[kwBase+1] != 1 {
		t.Errorf("unspecified scan should set both slots: %v", unVec)
	}
	// Leaf vectors have no join-operator bits.
	for i := 0; i < plan.NumJoinOps; i++ {
		if trees[1].Data[i] != 0 {
			t.Errorf("leaf vector should not set join bits")
		}
	}
}

func TestCardinalityFeature(t *testing.T) {
	db, st := setup(t)
	exec := executor.New(db)
	q := loveQuery()
	leaf := plan.Leaf("keyword", plan.TableScan)
	node := plan.Join2(plan.HashJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan))

	hist := &HistogramCardinality{Stats: st}
	if hist.NodeCardinality(q, leaf, 0, 0) <= 0 {
		t.Errorf("histogram leaf cardinality should be positive")
	}
	if hist.NodeCardinality(q, node, hist.NodeCardinality(q, node.Left, 0, 0), hist.NodeCardinality(q, node.Right, 0, 0)) <= 0 {
		t.Errorf("histogram join cardinality should be positive")
	}

	truth := &TrueCardinality{Counter: exec}
	tc := truth.NodeCardinality(q, node, 0, 0)
	if tc <= 0 {
		t.Errorf("true join cardinality should be positive")
	}
	// Second call hits the cache and returns the same value.
	if truth.NodeCardinality(q, node, 0, 0) != tc {
		t.Errorf("cache should return identical values")
	}

	// A featurizer with a cardinality source appends two extra slots
	// (log cardinality and log work estimate).
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot, Cardinality: hist, Stats: st}
	if f.PlanVectorSize() != plan.NumJoinOps+2*db.Catalog.NumRelations()+2 {
		t.Errorf("PlanVectorSize should include the two derived slots")
	}
	p := &plan.Plan{Query: q, Roots: []*plan.Node{node}}
	tree := f.EncodePlan(p)[0]
	if tree.Data[len(tree.Data)-2] <= 0 {
		t.Errorf("cardinality slot should be positive, got %f", tree.Data[len(tree.Data)-2])
	}
	if tree.Data[len(tree.Data)-1] < tree.Data[len(tree.Data)-2] {
		t.Errorf("work estimate should be at least the output cardinality")
	}
	// A loop join implies more work than a hash join over the same inputs.
	loopNode := plan.Join2(plan.LoopJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan))
	loopTree := f.EncodePlan(&plan.Plan{Query: q, Roots: []*plan.Node{loopNode}})[0]
	if loopTree.Data[len(loopTree.Data)-1] <= tree.Data[len(tree.Data)-1] {
		t.Errorf("loop-join work estimate should exceed hash-join work estimate")
	}

	// With an error model, the feature still encodes but may differ.
	f2 := &Featurizer{Catalog: db.Catalog, Encoding: OneHot, Cardinality: hist, Error: stats.NewErrorModel(2, 3)}
	tree2 := f2.EncodePlan(p)[0]
	if tree2.Data[len(tree2.Data)-1] <= 0 {
		t.Errorf("perturbed cardinality slot should still be positive")
	}
}

func TestCrossProductCardinality(t *testing.T) {
	_, st := setup(t)
	h := &HistogramCardinality{Stats: st}
	q := query.New("cross", []string{"keyword", "info_type"}, nil, nil)
	node := plan.Join2(plan.HashJoin, plan.Leaf("keyword", plan.TableScan), plan.Leaf("info_type", plan.TableScan))
	got := h.NodeCardinality(q, node, h.NodeCardinality(q, node.Left, 0, 0), h.NodeCardinality(q, node.Right, 0, 0))
	want := st.TableRows("keyword") * st.TableRows("info_type")
	if math.Abs(got-want) > 1 {
		t.Errorf("cross product estimate = %f, want %f", got, want)
	}
}

func TestSubQueryRestriction(t *testing.T) {
	q := loveQuery()
	sub := subQuery(q, []string{"movie_keyword", "title"})
	if len(sub.Relations) != 2 {
		t.Errorf("sub-query relations = %v", sub.Relations)
	}
	if len(sub.Joins) != 1 {
		t.Errorf("sub-query should keep only the movie_keyword-title join, got %v", sub.Joins)
	}
	if len(sub.Predicates) != 1 || sub.Predicates[0].Table != "title" {
		t.Errorf("sub-query should keep only the title predicate, got %v", sub.Predicates)
	}
}

func TestAllEncodingsListed(t *testing.T) {
	encs := AllEncodings()
	if len(encs) != 4 {
		t.Fatalf("expected 4 encodings, got %d", len(encs))
	}
	if encs[0] != RVector || encs[3] != OneHot {
		t.Errorf("encoding order should match Figure 12: %v", encs)
	}
}

func TestFeaturizerString(t *testing.T) {
	db, _ := setup(t)
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot}
	if !strings.Contains(f.String(), "1-hot") {
		t.Errorf("String() = %q", f.String())
	}
}
