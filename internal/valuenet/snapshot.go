// Network snapshots. Training mutates the network's weights in place, so a
// search that scores plans while a retraining round is running would read
// half-updated parameters. A Snapshot is what searches score with instead:
// the network's three towers packed into float32 panels — a copy, made once
// when the snapshot is taken — with the input widths and the target
// transform, and nothing trainable. Searches keep scoring against one
// consistent set of weights while the live network trains in the
// background, and new weights are published by atomically swapping in a
// fresh snapshot.
package valuenet

import (
	"neo/internal/nn"
	"neo/internal/treeconv"
)

// Snapshot is an immutable point-in-time scoring form of a network, safe to
// share across any number of concurrent searches. It holds only what a
// Scorer (scorer.go), the one inference pass, reads: the packed float32
// towers, the query and plan widths, the target transform, and — for Info —
// the parameter count. float64 is touched only at the input-encode boundary
// (query and plan vectors → float32 rows) and the output boundary
// (denormalization). Training and persistence never see the panels; they
// work on the Network the snapshot was frozen from.
type Snapshot struct {
	qmlp *nn.MLPF32
	conv *treeconv.StackF32
	head *nn.MLPF32

	queryDim, planDim int
	targetTransform
	params int
}

// Snapshot packs the network's current weights into a frozen predictor.
// Packing copies, so the snapshot shares no storage with the network. Call
// it only when no training round is mutating the weights (Neo calls it at
// the end of each retraining round, under the training lock).
func (n *Network) Snapshot() *Snapshot {
	return &Snapshot{
		qmlp:            nn.NewMLPF32(n.qmlp),
		conv:            treeconv.NewStackF32(n.conv),
		head:            nn.NewMLPF32(n.head),
		queryDim:        n.queryDim,
		planDim:         n.planDim,
		targetTransform: n.targetTransform,
		params:          n.NumParameters(),
	}
}

// SnapshotInfo describes a snapshot's memory footprint.
type SnapshotInfo struct {
	// Parameters is the number of scalar parameters of the network the
	// snapshot was frozen from.
	Parameters int `json:"parameters"`
	// ParamBytes is 8 × Parameters: the float64 weights of the network the
	// snapshot was frozen from. The snapshot itself keeps none of them.
	ParamBytes int `json:"param_bytes"`
	// PanelBytes is the footprint of the packed float32 panels it scores
	// with.
	PanelBytes int `json:"panel_bytes"`
}

// Info reports the snapshot's footprint.
func (s *Snapshot) Info() SnapshotInfo {
	return SnapshotInfo{
		Parameters: s.params,
		ParamBytes: 8 * s.params,
		PanelBytes: s.qmlp.Bytes() + s.conv.Bytes() + s.head.Bytes(),
	}
}

// PredictBatch returns the cost predictions (in the original cost domain)
// for a slice of encoded (query, plan-forest) pairs. A forest holds no nil
// tree (it may be empty). Safe for concurrent use.
func (s *Snapshot) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	out := s.PredictBatchNormalized(queries, forests)
	for i, v := range out {
		out[i] = s.denormalize(v)
	}
	return out
}

// PredictBatchNormalized is PredictBatch in normalised log-cost space, the
// space the Figure 14 robustness analysis histograms and the parity tests
// hold to the per-sample float64 reference network (reference_test.go). The
// pairs are grouped by query vector (sameSlice), and each group is scored by
// one Scorer, so the query tower runs once per distinct query, over a
// treeconv.Subtrees table of the group's trees.
func (s *Snapshot) PredictBatchNormalized(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	if len(queries) != len(forests) {
		panic("valuenet: PredictBatch queries/forests length mismatch")
	}
	if len(queries) == 0 {
		return nil
	}
	out := make([]float64, len(queries))
	done := make([]bool, len(queries))
	var group [][]*treeconv.Tree
	var index []int
	for i, q := range queries {
		if done[i] {
			continue
		}
		group, index = group[:0], index[:0]
		for j := i; j < len(queries); j++ {
			if !done[j] && sameSlice(queries[j], q) {
				group = append(group, forests[j])
				index = append(index, j)
				done[j] = true
			}
		}
		var tab treeconv.Subtrees
		roots := treeRoots(&tab, group)
		for k, v := range s.NewScorer(q, &tab).normalized(roots) {
			out[index[k]] = v
		}
	}
	return out
}

// treeRoots adds the trees of forests to tab and returns each forest's root
// entries: forests of feature trees in the id space a Scorer reads.
func treeRoots(tab *treeconv.Subtrees, forests [][]*treeconv.Tree) [][]int32 {
	out := make([][]int32, len(forests))
	for i, f := range forests {
		ids := make([]int32, len(f))
		for j, t := range f {
			ids[j] = tab.Add(t, 0)
		}
		out[i] = ids
	}
	return out
}

// sameSlice reports whether a and b are the same slice (pointer and length):
// exact for a query's one cached encoding, merely conservative for equal
// vectors held in different slices.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
