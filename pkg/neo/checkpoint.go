// Checkpoint facades: SaveCheckpoint/LoadCheckpoint make a System's learned
// state durable — value-network weights and optimizer trajectory, the
// row-vector embedding, the experience pool, baselines, the serving-snapshot
// version and the training RNG position. A system restored from a checkpoint
// serves bit-identical plans and resumes training exactly where the saved
// one stopped; a load sets the RNG position and replays nothing, and the
// first draw after it catches the stream up. See internal/checkpoint for the
// format.
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
	st := &checkpoint.State{State: s.Neo.Learner.State(), Encoding: string(s.Config.Encoding), Embedding: s.Featurizer.Embedding()}
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
// other than the one this configuration trains. The embedding is set once,
// by first use or by the first accepted load (feature.Featurizer.Adopt): a
// system that has not featurized yet adopts the checkpoint's model if it
// describes this configuration's corpus, so it never trains its own, and
// after that a load must carry the same vectors. The container is decoded
// aside into a fresh network and handed to core.Learner.Restore, which swaps
// in experience, baselines and RNG position and publishes the weights to the
// Planner as a fresh serving snapshot (empty plan cache) under the saved
// version, the way a retraining round publishes its result. A failed load
// changes nothing, and a load is safe while planning is in flight: searches
// already running finish on the snapshot they started with.
func (s *System) LoadCheckpoint(r io.Reader) error {
	st, err := checkpoint.Load(r, s.Featurizer.QueryVectorSize(), s.Featurizer.PlanVectorSize(),
		s.Neo.Planner.Config.ValueNet, string(s.Config.Encoding))
	if err == nil && st.Embedding != nil && !s.Featurizer.Adopt(st.Embedding) {
		err = fmt.Errorf("%w: checkpoint embedding differs from the one this configuration trains", checkpoint.ErrMismatch)
	}
	if err != nil {
		return fmt.Errorf("neo: loading checkpoint: %w", err)
	}
	s.Neo.Learner.Restore(st.State)
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
