package embedding

import (
	"math"
	"testing"
	"testing/quick"

	"neo/internal/datagen"
	"neo/internal/storage"
)

func TestTrainOnSyntheticCorpus(t *testing.T) {
	// Two "topics": (a,b,c) co-occur and (x,y,z) co-occur. After training,
	// within-topic similarity should exceed cross-topic similarity.
	var sentences [][]string
	for i := 0; i < 200; i++ {
		sentences = append(sentences, []string{"a", "b", "c"})
		sentences = append(sentences, []string{"x", "y", "z"})
	}
	m := Train(sentences, Config{Dim: 8, Seed: 3})
	if m.VocabSize() != 6 {
		t.Fatalf("vocab size = %d, want 6", m.VocabSize())
	}
	within := m.Similarity("a", "b")
	across := m.Similarity("a", "x")
	if within <= across {
		t.Errorf("within-topic similarity %.3f should exceed cross-topic %.3f", within, across)
	}
	if m.TrainTime <= 0 {
		t.Errorf("TrainTime should be recorded")
	}
	if m.Sentences != len(sentences) {
		t.Errorf("Sentences = %d, want %d", m.Sentences, len(sentences))
	}
}

func TestTrainEmptyAndUnknown(t *testing.T) {
	m := Train(nil, Config{Dim: 16, Seed: 1})
	if m.VocabSize() != 0 {
		t.Errorf("empty corpus should give empty vocab")
	}
	if _, ok := m.Vector("missing"); ok {
		t.Errorf("unknown token should not have a vector")
	}
	if m.Similarity("a", "b") != 0 {
		t.Errorf("similarity of unknown tokens should be 0")
	}
	if m.Count("missing") != 0 {
		t.Errorf("count of unknown token should be 0")
	}
}

func TestCosineProperties(t *testing.T) {
	if Cosine([]float64{1, 0}, []float64{1, 0}) != 1 {
		t.Errorf("cosine of identical vectors should be 1")
	}
	if math.Abs(Cosine([]float64{1, 0}, []float64{0, 1})) > 1e-12 {
		t.Errorf("cosine of orthogonal vectors should be 0")
	}
	if Cosine([]float64{1}, []float64{1, 2}) != 0 {
		t.Errorf("mismatched lengths should give 0")
	}
	if Cosine([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Errorf("zero vector should give 0")
	}
	// Property: cosine is symmetric and bounded in [-1, 1]. Inputs are mapped
	// into a moderate range to avoid float64 overflow when squaring.
	f := func(a, b [4]float64) bool {
		av, bv := make([]float64, 4), make([]float64, 4)
		for i := range av {
			av[i] = math.Mod(a[i], 1e6)
			bv[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(av[i]) {
				av[i] = 0
			}
			if math.IsNaN(bv[i]) {
				bv[i] = 0
			}
		}
		c1 := Cosine(av, bv)
		c2 := Cosine(bv, av)
		return math.Abs(c1-c2) < 1e-9 && c1 <= 1.0000001 && c1 >= -1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenHelpers(t *testing.T) {
	tok := Token("keyword", "keyword", storage.StringValue("love"))
	if tok != "keyword.keyword=love" {
		t.Errorf("Token = %q", tok)
	}
	if TokenPrefix("a", "b") != "a.b=" {
		t.Errorf("TokenPrefix wrong")
	}
}

func TestSentencesFromIMDB(t *testing.T) {
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sentences := Sentences(db)
	if len(sentences) == 0 {
		t.Fatal("no sentences produced")
	}
	// No sentence should contain a primary-key or foreign-key token.
	for _, s := range sentences[:50] {
		for _, tok := range s {
			if tok == "title.id=1" || tok == "movie_keyword.movie_id=1" {
				t.Errorf("sentence contains key token %q", tok)
			}
		}
	}
	// There must be keyword tokens and genre (movie_info.info) tokens.
	foundKeyword, foundGenre := false, false
	for _, s := range sentences {
		for _, tok := range s {
			if tok == "keyword.keyword=love" {
				foundKeyword = true
			}
			if tok == "movie_info.info=romance" {
				foundGenre = true
			}
		}
	}
	if !foundKeyword || !foundGenre {
		t.Errorf("expected keyword and genre tokens in corpus (keyword=%v genre=%v)", foundKeyword, foundGenre)
	}
}

func TestDenormalizedSentencesCaptureCorrelation(t *testing.T) {
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	joined := DenormalizedSentences(db, 40)
	plain := Sentences(db)
	if len(joined) <= len(plain) {
		t.Fatalf("denormalised corpus (%d) should add hub sentences to the plain corpus (%d)", len(joined), len(plain))
	}
	// At least one denormalised sentence must contain both a keyword and a
	// genre token — the co-occurrence Table 2 relies on.
	found := false
	for _, s := range joined {
		hasKw, hasGenre := false, false
		for _, tok := range s {
			if len(tok) > 16 && tok[:16] == "keyword.keyword=" {
				hasKw = true
			}
			if len(tok) > 16 && tok[:16] == "movie_info.info=" {
				hasGenre = true
			}
		}
		if hasKw && hasGenre {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no denormalised sentence contains both a keyword and a genre")
	}
}

// TestTable2SimilarityShape is the core R-Vector claim: correlated
// keyword/genre pairs have higher cosine similarity than uncorrelated ones.
func TestTable2SimilarityShape(t *testing.T) {
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sentences := DenormalizedSentences(db, 40)
	m := Train(sentences, Config{Dim: 16, Seed: 5})

	sim := func(keyword, genre string) float64 {
		return m.Similarity("keyword.keyword="+keyword, "movie_info.info="+genre)
	}
	loveRomance := sim("love", "romance")
	loveHorror := sim("love", "horror")
	fightAction := sim("fight", "action")
	fightHorror := sim("fight", "horror")
	if loveRomance <= loveHorror {
		t.Errorf("sim(love,romance)=%.3f should exceed sim(love,horror)=%.3f", loveRomance, loveHorror)
	}
	if fightAction <= fightHorror {
		t.Errorf("sim(fight,action)=%.3f should exceed sim(fight,horror)=%.3f", fightAction, fightHorror)
	}
}

func TestMatchMean(t *testing.T) {
	sentences := [][]string{
		{"k.word=love-story", "g.genre=romance"},
		{"k.word=lovely", "g.genre=romance"},
		{"k.word=war", "g.genre=action"},
	}
	for i := 0; i < 50; i++ {
		sentences = append(sentences, sentences[:3]...)
	}
	m := Train(sentences, Config{Dim: 8, Seed: 9})
	mean, matched := m.MatchMean("k.word=", "love")
	if matched != 2 {
		t.Errorf("matched = %d, want 2 (love-story, lovely)", matched)
	}
	if len(mean) != 8 {
		t.Errorf("mean length = %d, want 8", len(mean))
	}
	nonzero := false
	for _, v := range mean {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Errorf("mean vector should not be all zeros")
	}
	_, none := m.MatchMean("k.word=", "zzzz")
	if none != 0 {
		t.Errorf("no tokens should match zzzz")
	}
	// Empty substring matches every token with the prefix.
	_, all := m.MatchMean("k.word=", "")
	if all != 3 {
		t.Errorf("empty substring should match all 3 keyword tokens, got %d", all)
	}
}

func TestCountReflectsFrequency(t *testing.T) {
	sentences := [][]string{{"a", "b"}, {"a", "c"}, {"a", "b"}}
	m := Train(sentences, Config{Dim: 4, Seed: 1})
	if m.Count("a") != 3 || m.Count("b") != 2 || m.Count("c") != 1 {
		t.Errorf("counts wrong: a=%d b=%d c=%d", m.Count("a"), m.Count("b"), m.Count("c"))
	}
}

func TestTrainDeterministic(t *testing.T) {
	sentences := [][]string{{"a", "b", "c"}, {"c", "d"}, {"a", "d"}}
	cfg := Config{Dim: 6, Seed: 42}
	m1 := Train(sentences, cfg)
	m2 := Train(sentences, cfg)
	v1, _ := m1.Vector("a")
	v2, _ := m2.Vector("a")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("training is not deterministic for a fixed seed")
		}
	}
}

// TestDescribes: a model describes the corpus it was trained on at its own
// width, whatever the seed, and no corpus that differs in sentence count,
// vocabulary or a token's count.
func TestDescribes(t *testing.T) {
	sentences := [][]string{{"a", "b"}, {"a", "c"}, {"a", "b"}}
	m := Train(sentences, Config{Dim: 4, Seed: 1})
	if !m.Describes(sentences, 4) || !Train(sentences, Config{Dim: 4, Seed: 2}).Describes(sentences, 4) {
		t.Fatal("a model does not describe its own corpus")
	}
	if m.Describes(sentences, 5) {
		t.Error("a model describes its corpus at another width")
	}
	for _, other := range [][][]string{
		{{"a", "b"}, {"a", "c"}},                 // a sentence fewer
		{{"a", "b"}, {"a", "c"}, {"a", "b"}, {}}, // a sentence more
		{{"a", "b"}, {"a", "d"}, {"a", "b"}},     // another token
		{{"a", "b"}, {"a", "c"}, {"a", "c"}},     // other counts
	} {
		if m.Describes(other, 4) {
			t.Errorf("the model of %v describes %v", sentences, other)
		}
	}
}

func TestHubTableSelection(t *testing.T) {
	if hub := hubTable(datagen.IMDBCatalog()); hub != "title" {
		t.Errorf("IMDB hub = %q, want title", hub)
	}
	if hub := hubTable(datagen.CorpCatalog()); hub == "" {
		t.Errorf("Corp hub should not be empty")
	}
}

func BenchmarkTrainNoJoins(b *testing.B) {
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.2, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	sentences := Sentences(db)
	cfg := Config{Dim: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(sentences, cfg)
	}
}
