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

// SaveCheckpoint writes the system's learned state to w. It briefly pauses
// retraining rounds (planning keeps running); do not call it concurrently
// with experience-mutating calls such as Train or Bootstrap.
func (s *System) SaveCheckpoint(w io.Writer) error {
	var err error
	s.Neo.WithTrainingPaused(func() {
		seed, draws := s.Neo.RNGState()
		st := &checkpoint.State{
			Encoding:   string(s.Config.Encoding),
			NetVersion: s.Neo.NetVersion(),
			RNGSeed:    seed,
			RNGDraws:   draws,
			TrainTime:  s.Neo.TrainingTime(),
			Net:        s.Neo.Net,
			Embedding:  s.Featurizer.Embedding,
			Experience: s.Neo.Experience.Entries(),
			Baselines:  s.Neo.Baselines(),
		}
		err = checkpoint.Save(w, st)
	})
	if err != nil {
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
// (dataset, encoding, value-network architecture); mismatches fail with an
// error wrapping checkpoint.ErrMismatch. Loading replaces the network
// weights and optimizer state in place, swaps in the saved embedding,
// experience, baselines and RNG position, and publishes the restored weights
// as a fresh serving snapshot (empty plan cache) under the saved version.
// Call it before serving traffic — it must not run concurrently
// with planning or training.
func (s *System) LoadCheckpoint(r io.Reader) error {
	st, err := checkpoint.Load(r, s.Neo.Net, string(s.Config.Encoding))
	if err != nil {
		return fmt.Errorf("neo: loading checkpoint: %w", err)
	}
	if st.Embedding != nil {
		s.Featurizer.Embedding = st.Embedding
	}
	s.Neo.Experience.Restore(st.Experience)
	s.Neo.RestoreBaselines(st.Baselines)
	s.Neo.RestoreRNG(st.RNGSeed, st.RNGDraws)
	s.Neo.RestoreTrainingTime(st.TrainTime)
	s.Neo.RestoreSnapshot(st.NetVersion)
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
