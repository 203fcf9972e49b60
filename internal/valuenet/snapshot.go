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
