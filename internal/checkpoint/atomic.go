// Atomic file writes for checkpoints: the bytes go to a temporary file in
// the target directory which is renamed over the final path only after a
// successful write and close, so an interrupted writer can never leave a
// truncated file under the real name.
package checkpoint

import (
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile writes a file atomically via temp-file + rename. The
// write callback receives the temporary file; perm is applied before the
// rename (os.CreateTemp defaults to 0600, which is wrong for shareable
// artifacts like committed benchmark baselines).
func AtomicWriteFile(path string, perm os.FileMode, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	// Flush to stable storage before the rename makes the file visible under
	// the final name: without this, a crash shortly after a "successful"
	// save could leave a truncated file where a durable artifact is expected.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself (best effort — not every platform supports
	// fsync on directories).
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}
