// Benchmark compatibility. The benchmark harness's probe (benchmark/probe.go)
// still scores plans as forests of root references — feature.EncodePlan,
// then valuenet.Snapshot.PredictBatch — and this block keeps it compiling.
// Delete it, with those two, once the probe scores through
// valuenet.Snapshot.NewScorer over one plan encoder per search.
package treeconv

// Tree is a root reference: subtree ID of the id space Nodes.
type Tree struct {
	Nodes Nodes
	ID    int32
}

// Node returns entry e's row and its children's entries: the table as the id
// space a valuenet.Scorer reads, for PredictBatch's forests drawn from many
// id spaces.
func (s *Subtrees) Node(e int32) (row []float64, left, right int32) {
	return s.Row[e], s.Left[e], s.Right[e]
}
