package storage

// DistinctKeys returns the number of distinct keys in the index, for the
// external disk tests.
func DistinctKeys[R any](ix *Index[R]) int { return len(ix.ints) + len(ix.strs) }
