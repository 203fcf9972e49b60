// Checkpoint facades: SaveCheckpoint/LoadCheckpoint make a System's learned
// state durable — value-network weights and optimizer trajectory, the
// row-vector embedding, the experience pool, baselines, the serving-snapshot
// version and the training RNG position. A system restored from a checkpoint
// serves bit-identical plans and resumes training exactly where the saved
// one stopped; see internal/checkpoint for the format.
package neo

import (
	"fmt"
	"io"
	"os"

	"neo/internal/checkpoint"
)

// SaveCheckpoint writes the system's learned state to w. It copies the state
// out between retraining rounds (planning keeps running) and encodes the
// copy; do not call it concurrently with experience-mutating calls such as
// Train or Bootstrap.
func (s *System) SaveCheckpoint(w io.Writer) error {
	st := &checkpoint.State{State: s.Neo.State(), Encoding: string(s.Config.Encoding), Embedding: s.Featurizer.Embedding}
	if err := checkpoint.Save(w, st); err != nil {
		return fmt.Errorf("neo: saving checkpoint: %w", err)
	}
	return nil
}

// SaveCheckpointFile writes the checkpoint atomically (temp file + rename,
// via checkpoint.AtomicWriteFile), so an interrupted save can never leave a
// truncated checkpoint under the real name.
func (s *System) SaveCheckpointFile(path string) error {
	err := checkpoint.AtomicWriteFile(path, 0o644, s.SaveCheckpoint)
	if err != nil {
		return fmt.Errorf("neo: saving checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into this
// system. The system must have been opened with the same configuration
// (dataset, seed, encoding, value-network architecture); mismatches fail with
// an error wrapping checkpoint.ErrMismatch — including a row-vector embedding
// other than the one this configuration trains, since the embedding is a pure
// function of the configuration and is never replaced. The container is
// decoded aside into a fresh network and handed to core.Neo.Restore, which
// swaps in experience, baselines and RNG position and publishes the weights
// as a fresh serving snapshot (empty plan cache) under the saved version, the
// way a retraining round publishes its result. A failed load changes nothing,
// and a load is safe while planning is in flight: searches already running
// finish on the snapshot they started with.
func (s *System) LoadCheckpoint(r io.Reader) error {
	st, err := checkpoint.Load(r, s.Featurizer.QueryVectorSize(), s.Featurizer.PlanVectorSize(),
		s.Neo.Config.ValueNet, string(s.Config.Encoding))
	if err == nil && st.Embedding != nil && !st.Embedding.SameVectors(s.Featurizer.Embedding) {
		err = fmt.Errorf("%w: checkpoint embedding differs from the one this configuration trains", checkpoint.ErrMismatch)
	}
	if err != nil {
		return fmt.Errorf("neo: loading checkpoint: %w", err)
	}
	s.Neo.Restore(st.State)
	return nil
}

// LoadCheckpointFile restores a checkpoint from a file.
func (s *System) LoadCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("neo: loading checkpoint: %w", err)
	}
	defer f.Close()
	return s.LoadCheckpoint(f)
}
