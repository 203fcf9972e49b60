// Embedding state serialization. A trained row-vector model is a pure
// function of the database and the training configuration, but retraining it
// is the slowest part of assembling an R-Vector system — and a checkpointed
// optimizer must keep scoring with exactly the vectors it was trained
// against. Save/Load capture the whole model: vocabulary, counts and both
// the input (row) and output (context) vector tables.
package embedding

import (
	"fmt"
	"io"
	"slices"
	"time"

	"neo/internal/wire"
)

// Save writes the trained model.
func (m *Model) Save(w io.Writer) error {
	if err := wire.WriteU32(w, uint32(m.Dim)); err != nil {
		return err
	}
	if err := wire.WriteU64(w, uint64(m.Sentences)); err != nil {
		return err
	}
	if err := wire.WriteI64(w, int64(m.TrainTime)); err != nil {
		return err
	}
	if err := wire.WriteU32(w, uint32(len(m.tokens))); err != nil {
		return err
	}
	for i, tok := range m.tokens {
		if err := wire.WriteString(w, tok); err != nil {
			return err
		}
		if err := wire.WriteU64(w, uint64(m.counts[i])); err != nil {
			return err
		}
		if err := wire.WriteF64s(w, m.in[i]); err != nil {
			return err
		}
		if err := wire.WriteF64s(w, m.out[i]); err != nil {
			return err
		}
	}
	return nil
}

// SameVectors reports whether o featurizes exactly as m does: same dimension,
// same vocabulary and counts in the same order, bit-identical vectors.
// TrainTime, a wall-clock measurement, is not compared.
func (m *Model) SameVectors(o *Model) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Dim != o.Dim || !slices.Equal(m.tokens, o.tokens) || !slices.Equal(m.counts, o.counts) {
		return false
	}
	for i := range m.tokens {
		if !slices.Equal(m.in[i], o.in[i]) || !slices.Equal(m.out[i], o.out[i]) {
			return false
		}
	}
	return true
}

// LoadModel reads a model written by Save and rebuilds its vocabulary index.
func LoadModel(r io.Reader) (*Model, error) {
	dim, err := wire.ReadU32(r)
	if err != nil {
		return nil, err
	}
	sentences, err := wire.ReadU64(r)
	if err != nil {
		return nil, err
	}
	trainTime, err := wire.ReadI64(r)
	if err != nil {
		return nil, err
	}
	n, err := wire.ReadU32(r)
	if err != nil {
		return nil, err
	}
	// Bound the vocabulary like every other count prefix in the checkpoint
	// codec: a corrupted or crafted count must fail cleanly, not allocate
	// gigabytes. Real vocabularies are a few thousand tokens.
	const maxVocab = 1 << 24
	if n > maxVocab {
		return nil, fmt.Errorf("embedding: token count %d exceeds limit %d (corrupt count prefix?)", n, maxVocab)
	}
	m := &Model{
		Dim:       int(dim),
		Sentences: int(sentences),
		TrainTime: time.Duration(trainTime),
		vocab:     make(map[string]int),
	}
	for i := 0; i < int(n); i++ {
		tok, err := wire.ReadString(r)
		if err != nil {
			return nil, err
		}
		count, err := wire.ReadU64(r)
		if err != nil {
			return nil, err
		}
		in, err := wire.ReadF64s(r)
		if err != nil {
			return nil, err
		}
		out, err := wire.ReadF64s(r)
		if err != nil {
			return nil, err
		}
		if len(in) != m.Dim || len(out) != m.Dim {
			return nil, fmt.Errorf("embedding: token %q has %d/%d-dim vectors, model dim is %d",
				tok, len(in), len(out), m.Dim)
		}
		if _, dup := m.vocab[tok]; dup {
			return nil, fmt.Errorf("embedding: duplicate token %q in saved model", tok)
		}
		m.vocab[tok] = len(m.tokens)
		m.tokens = append(m.tokens, tok)
		m.counts = append(m.counts, int(count))
		m.in = append(m.in, in)
		m.out = append(m.out, out)
	}
	return m, nil
}
