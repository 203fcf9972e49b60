// Standalone embedding checkpoints: the same container format carrying only
// an "embedding" section. Row-vector models are pure functions of the
// database and the training configuration but are by far the slowest part of
// assembling an R-Vector system, so the experiment harness caches them on
// disk between runs.
package checkpoint

import (
	"bytes"
	"io"
	"os"

	"neo/internal/embedding"
)

// SaveEmbedding writes a container holding only the embedding model.
func SaveEmbedding(w io.Writer, m *embedding.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	return writeContainer(w, []section{{name: sectionEmbedding, payload: buf.Bytes()}})
}

// LoadEmbedding reads a container written by SaveEmbedding (or any
// checkpoint containing an embedding section) and returns the model.
func LoadEmbedding(r io.Reader) (*embedding.Model, error) {
	secs, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	payload, err := secs.reader(sectionEmbedding)
	if err != nil {
		return nil, err
	}
	m, err := embedding.LoadModel(payload)
	if err != nil {
		return nil, malformed(sectionEmbedding, err)
	}
	return m, nil
}

// SaveEmbeddingFile writes a standalone embedding checkpoint atomically
// (temp file + rename).
func SaveEmbeddingFile(path string, m *embedding.Model) error {
	return AtomicWriteFile(path, 0o644, func(w io.Writer) error {
		return SaveEmbedding(w, m)
	})
}

// LoadEmbeddingFile reads a standalone embedding checkpoint.
func LoadEmbeddingFile(path string) (*embedding.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEmbedding(f)
}
