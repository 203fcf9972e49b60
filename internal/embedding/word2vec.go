// Package embedding implements Neo's R-Vector featurization substrate: a
// word2vec-style (skip-gram with negative sampling) embedding model trained
// on database rows, treating each row — or each partially denormalised row —
// as a "sentence" of column values (Section 5 of the paper).
//
// The resulting vectors place correlated values (e.g. the keyword "love" and
// the genre "romance") close together, giving the value network a
// semantically rich representation of query predicates that substitutes for
// precise cardinality estimation.
package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"neo/internal/schema"
	"neo/internal/storage"
)

// Config controls word2vec training.
type Config struct {
	// Dim is the embedding dimensionality (the paper uses 100; the default
	// here is smaller so the full experiment suite runs quickly).
	Dim int
	// Seed seeds the sampling RNG.
	Seed int64
}

// The training settings every row-vector model shares: passes over the
// sentences, negative samples per positive pair, and the constant SGD step
// size.
const (
	epochs          = 3
	negativeSamples = 4
	learningRate    = 0.05
)

// Model is a trained row-vector embedding.
type Model struct {
	Dim int
	// TrainTime is how long Train took (reported by the Figure 17 bench).
	TrainTime time.Duration
	// Sentences is the number of training sentences used.
	Sentences int

	vocab  map[string]int
	tokens []string
	counts []int
	in     [][]float64 // input (word) vectors — these are the row vectors
	out    [][]float64 // output (context) vectors
}

// Train trains a skip-gram model over the given sentences. Tokens are
// arbitrary strings; in Neo they are "column=value" pairs produced by
// Sentences / DenormalizedSentences.
func Train(sentences [][]string, cfg Config) *Model {
	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Dim: cfg.Dim, vocab: make(map[string]int), Sentences: len(sentences)}
	m.tokens, m.counts = vocabulary(sentences)
	for i, w := range m.tokens {
		m.vocab[w] = i
	}
	n := len(m.tokens)
	if n == 0 {
		m.TrainTime = time.Since(start)
		return m
	}
	m.in = make([][]float64, n)
	m.out = make([][]float64, n)
	for i := 0; i < n; i++ {
		m.in[i] = make([]float64, cfg.Dim)
		m.out[i] = make([]float64, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			m.in[i][d] = (rng.Float64() - 0.5) / float64(cfg.Dim)
		}
	}

	// Unigram^0.75 negative-sampling table.
	negTable := buildNegativeTable(m.counts, 1<<16)

	// Skip-gram with negative sampling; the context window is the entire
	// sentence (rows are short).
	for range epochs {
		for _, sentence := range sentences {
			ids := make([]int, len(sentence))
			for i, w := range sentence {
				ids[i] = m.vocab[w]
			}
			for i, center := range ids {
				for j, context := range ids {
					if i == j {
						continue
					}
					m.trainPair(center, context, 1)
					for range negativeSamples {
						neg := negTable[rng.Intn(len(negTable))]
						if neg == context {
							continue
						}
						m.trainPair(center, neg, 0)
					}
				}
			}
		}
	}
	m.TrainTime = time.Since(start)
	return m
}

// vocabulary returns the distinct tokens of sentences in sorted order, and
// how often each occurs.
func vocabulary(sentences [][]string) (tokens []string, counts []int) {
	freq := make(map[string]int)
	for _, s := range sentences {
		for _, w := range s {
			freq[w]++
		}
	}
	tokens = make([]string, 0, len(freq))
	for w := range freq {
		tokens = append(tokens, w)
	}
	sort.Strings(tokens) // deterministic ordering
	counts = make([]int, len(tokens))
	for i, w := range tokens {
		counts[i] = freq[w]
	}
	return tokens, counts
}

// Describes reports whether m could be the model Train builds over sentences
// at width dim, as far as that shows without training: the same width,
// sentence count, vocabulary and per-token counts. The vectors themselves,
// which only training produces, are not checked.
func (m *Model) Describes(sentences [][]string, dim int) bool {
	tokens, counts := vocabulary(sentences)
	return m.Dim == dim && m.Sentences == len(sentences) &&
		slices.Equal(m.tokens, tokens) && slices.Equal(m.counts, counts)
}

// trainPair performs one SGD step on (center, context) with the given label
// (1 for observed pairs, 0 for negative samples).
func (m *Model) trainPair(center, context int, label float64) {
	vin := m.in[center]
	vout := m.out[context]
	dot := 0.0
	for d := range vin {
		dot += vin[d] * vout[d]
	}
	pred := sigmoid(dot)
	g := (pred - label) * learningRate
	for d := range vin {
		inD := vin[d]
		vin[d] -= g * vout[d]
		vout[d] -= g * inD
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func buildNegativeTable(counts []int, size int) []int {
	table := make([]int, 0, size)
	total := 0.0
	pow := make([]float64, len(counts))
	for i, c := range counts {
		pow[i] = math.Pow(float64(c), 0.75)
		total += pow[i]
	}
	for i := range counts {
		n := int(pow[i] / total * float64(size))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			table = append(table, i)
		}
	}
	return table
}

// VocabSize returns the number of tokens in the model.
func (m *Model) VocabSize() int { return len(m.tokens) }

// Vector returns the embedding of a token and whether it is in the
// vocabulary.
func (m *Model) Vector(token string) ([]float64, bool) {
	id, ok := m.vocab[token]
	if !ok {
		return nil, false
	}
	return m.in[id], true
}

// Count returns how often the token was seen during training.
func (m *Model) Count(token string) int {
	id, ok := m.vocab[token]
	if !ok {
		return 0
	}
	return m.counts[id]
}

// Similarity returns the cosine similarity between two tokens (0 when either
// token is unknown).
func (m *Model) Similarity(a, b string) float64 {
	va, ok1 := m.Vector(a)
	vb, ok2 := m.Vector(b)
	if !ok1 || !ok2 {
		return 0
	}
	return Cosine(va, vb)
}

// Cosine computes the cosine similarity of two vectors.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// MatchMean returns the mean vector of every vocabulary token that starts
// with the given prefix (typically "table.column=") and contains the given
// substring in its value part, along with how many tokens matched. This
// implements the paper's handling of LIKE/IN predicates ("we take the mean
// of all the matched word vectors").
func (m *Model) MatchMean(prefix, substring string) ([]float64, int) {
	mean := make([]float64, m.Dim)
	matched := 0
	needle := strings.ToLower(substring)
	for i, tok := range m.tokens {
		if !strings.HasPrefix(tok, prefix) {
			continue
		}
		value := strings.ToLower(strings.TrimPrefix(tok, prefix))
		if needle != "" && !strings.Contains(value, needle) {
			continue
		}
		for d := range mean {
			mean[d] += m.in[i][d]
		}
		matched++
	}
	if matched > 0 {
		for d := range mean {
			mean[d] /= float64(matched)
		}
	}
	return mean, matched
}

// Token builds the canonical token for a column value, e.g.
// "keyword.keyword=love".
func Token(table, column string, v storage.Value) string {
	return TokenPrefix(table, column) + v.String()
}

// TokenPrefix returns the "table.column=" prefix used for tokens of one
// column.
func TokenPrefix(table, column string) string {
	return fmt.Sprintf("%s.%s=", table, column)
}

// sentenceOptions controls which columns contribute tokens.
type sentenceOptions struct {
	skip map[string]bool // "table.column" keys to skip (keys and FK columns)
}

func buildSkip(cat *schema.Catalog) sentenceOptions {
	skip := make(map[string]bool)
	for _, t := range cat.Tables() {
		if t.PrimaryKey != "" {
			skip[t.Name+"."+t.PrimaryKey] = true
		}
	}
	for _, fk := range cat.ForeignKeys() {
		skip[fk.FromTable+"."+fk.FromColumn] = true
		skip[fk.ToTable+"."+fk.ToColumn] = true
	}
	return sentenceOptions{skip: skip}
}

// rowTokens returns the tokens of one row of one table, skipping key columns
// (join keys carry no semantic content and would blow up the vocabulary).
func rowTokens(db *storage.Database, table string, row int, opts sentenceOptions) []string {
	tab := db.Table(table)
	ts := tab.Schema
	var out []string
	for _, col := range ts.Columns {
		if opts.skip[table+"."+col.Name] {
			continue
		}
		v, err := tab.Value(col.Name, row)
		if err != nil {
			continue
		}
		if col.Type == schema.IntType {
			// Bucket high-cardinality integers (e.g. years into decades) so
			// tokens recur often enough to embed.
			v = storage.IntValue(v.Int / 10 * 10)
		}
		out = append(out, Token(table, col.Name, v))
	}
	return out
}

// Sentences produces the "no joins" training corpus: one sentence per base
// row, containing that row's (non-key) column values.
func Sentences(db *storage.Database) [][]string {
	opts := buildSkip(db.Catalog)
	var out [][]string
	for _, t := range db.Catalog.Tables() {
		tab := db.Table(t.Name)
		for row := 0; row < tab.NumRows(); row++ {
			s := rowTokens(db, t.Name, row, opts)
			if len(s) > 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// TrainRows trains a model over RowCorpus(db, joins).
func TrainRows(db *storage.Database, joins bool, cfg Config) *Model {
	return Train(RowCorpus(db, joins), cfg)
}

// RowCorpus returns the sentences a row-vector model of db trains on: with
// joins the partially denormalised corpus (DenormalizedSentences, which the
// R-Vector encoding uses), otherwise the per-row one (Sentences, for
// R-Vector-no-joins).
func RowCorpus(db *storage.Database, joins bool) [][]string {
	if joins {
		return DenormalizedSentences(db, 40)
	}
	return Sentences(db)
}

// DenormalizedSentences produces the "joins" training corpus: in addition to
// the per-row sentences, the hub table (the table referenced by the most
// foreign keys — title in the IMDB profile) is partially denormalised: each
// hub row becomes a sentence containing its own values, the values of every
// referencing child row, and the values of the dimension rows those children
// point at. This is what lets keywords and genres of the same movie co-occur.
func DenormalizedSentences(db *storage.Database, maxChildrenPerHub int) [][]string {
	if maxChildrenPerHub <= 0 {
		maxChildrenPerHub = 40
	}
	cat := db.Catalog
	opts := buildSkip(cat)
	out := Sentences(db)

	hub := hubTable(cat)
	if hub == "" {
		return out
	}
	hubTab := db.Table(hub)
	hubSchema, _ := cat.Table(hub)

	// children: FKs pointing at the hub.
	var childFKs []schema.ForeignKey
	for _, fk := range cat.ForeignKeys() {
		if fk.ToTable == hub {
			childFKs = append(childFKs, fk)
		}
	}

	for row := 0; row < hubTab.NumRows(); row++ {
		sentence := rowTokens(db, hub, row, opts)
		hubKey, err := hubTab.Value(hubSchema.PrimaryKey, row)
		if err != nil {
			continue
		}
		added := 0
		for _, fk := range childFKs {
			child := db.Table(fk.FromTable)
			idx := child.Index(fk.FromColumn)
			if idx == nil {
				continue
			}
			for _, childRow := range idx.Lookup(hubKey) {
				if added >= maxChildrenPerHub {
					break
				}
				sentence = append(sentence, rowTokens(db, fk.FromTable, int(childRow), opts)...)
				// Follow the child's other foreign keys one more hop (e.g.
				// movie_keyword.keyword_id -> keyword.keyword).
				for _, fk2 := range cat.ForeignKeys() {
					if fk2.FromTable != fk.FromTable || fk2.ToTable == hub {
						continue
					}
					keyVal, err := child.Value(fk2.FromColumn, int(childRow))
					if err != nil {
						continue
					}
					dim := db.Table(fk2.ToTable)
					dimIdx := dim.Index(fk2.ToColumn)
					if dimIdx == nil {
						continue
					}
					for _, dimRow := range dimIdx.Lookup(keyVal) {
						sentence = append(sentence, rowTokens(db, fk2.ToTable, int(dimRow), opts)...)
						break
					}
				}
				added++
			}
		}
		if len(sentence) > 1 {
			out = append(out, sentence)
		}
	}
	return out
}

// hubTable returns the table referenced by the largest number of foreign
// keys (ties broken by catalog order), or "" if the catalog has no foreign
// keys.
func hubTable(cat *schema.Catalog) string {
	counts := make(map[string]int)
	for _, fk := range cat.ForeignKeys() {
		counts[fk.ToTable]++
	}
	best, bestCount := "", 0
	for _, t := range cat.Tables() {
		if counts[t.Name] > bestCount {
			best, bestCount = t.Name, counts[t.Name]
		}
	}
	return best
}
