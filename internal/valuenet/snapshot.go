// Network snapshots. Training mutates the network's weights in place, so a
// search that scores plans while a retraining round is running would read
// half-updated parameters. Snapshot gives the optimizer a double-buffering
// primitive: it deep-copies the weights into a frozen Network that exposes
// only the inference surface, so searches keep scoring against a consistent
// set of weights while the live network trains in the background, and the
// new weights are published by atomically swapping in a fresh snapshot.
package valuenet

import (
	"neo/internal/nn"
	"neo/internal/treeconv"
)

// Clone returns a deep copy of the network: same architecture and weights,
// fully independent parameter storage. Optimizer state (Adam moments) is not
// copied — a clone serves inference or a fresh training run, not resumption
// of an optimization trajectory.
func (n *Network) Clone() *Network {
	c := New(n.queryDim, n.planDim, n.cfg)
	src, dst := n.Params(), c.Params()
	for i, p := range src {
		copy(dst[i].Value, p.Value)
	}
	c.targetMean, c.targetStd = n.targetMean, n.targetStd
	return c
}

// CloneTrainable is Clone plus the optimizer state (Adam step counter and
// moments): training the copy continues the original's trajectory exactly.
// It is what a checkpoint is written from, so saving never reads a network a
// retraining round may be mutating.
func (n *Network) CloneTrainable() *Network {
	c := n.Clone()
	c.opt.CopyState(n.opt, n.Params(), c.Params())
	return c
}

// Snapshot is an immutable point-in-time copy of a network, safe to share
// across any number of concurrent searches. It has no training methods; the
// weights it scores with can never change after creation.
//
// A snapshot carries the float64 master weights (net) — what checkpoints
// save and what the target transform reads — and the float32 packed panels
// converted from them once at snapshot time. Every prediction goes through a
// Scorer (scorer.go), the one inference pass, which scores with the panels:
// float64 is touched only at the input-encode boundary (query and plan
// vectors → float32 rows) and the output boundary (denormalization).
// Training and persistence never see the panels.
type Snapshot struct {
	net *Network
	f32 netF32
}

// netF32 is the packed float32 form of a network's three towers.
type netF32 struct {
	qmlp *nn.MLPF32
	conv *treeconv.StackF32
	head *nn.MLPF32
}

// Snapshot deep-copies the network's current weights into a frozen predictor
// and packs them for float32 scoring. Call it only when no training round is
// mutating the weights (Neo calls it at the end of each retraining round,
// under the training lock).
func (n *Network) Snapshot() *Snapshot {
	c := n.Clone()
	return &Snapshot{net: c, f32: netF32{
		qmlp: nn.NewMLPF32(c.qmlp),
		conv: treeconv.NewStackF32(c.conv),
		head: nn.NewMLPF32(c.head),
	}}
}

// SnapshotInfo describes a snapshot's memory footprint.
type SnapshotInfo struct {
	// Parameters is the number of scalar parameters of the frozen network.
	Parameters int `json:"parameters"`
	// ParamBytes is the float64 master copy's parameter footprint.
	ParamBytes int `json:"param_bytes"`
	// PanelBytes is the footprint of the packed float32 panels it scores
	// with.
	PanelBytes int `json:"panel_bytes"`
}

// Info reports the snapshot's footprint.
func (s *Snapshot) Info() SnapshotInfo {
	n := s.net.NumParameters()
	return SnapshotInfo{
		Parameters: n,
		ParamBytes: 8 * n,
		PanelBytes: s.f32.qmlp.Bytes() + s.f32.conv.Bytes() + s.f32.head.Bytes(),
	}
}

// Predict returns the cost prediction in the original cost domain.
func (s *Snapshot) Predict(queryVec []float64, trees []*treeconv.Tree) float64 {
	return s.PredictBatch([][]float64{queryVec}, [][]*treeconv.Tree{trees})[0]
}

// PredictBatch returns the cost predictions (in the original cost domain)
// for a slice of encoded (query, plan-forest) pairs. Safe for concurrent use.
func (s *Snapshot) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	out := s.PredictBatchNormalized(queries, forests)
	for i, v := range out {
		out[i] = s.net.denormalize(v)
	}
	return out
}

// PredictBatchNormalized is PredictBatch in normalised log-cost space. The
// pairs are grouped by query vector (sameSlice), and each group is scored by
// one Scorer, so the query tower runs once per distinct query.
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
		for k, v := range s.NewScorer(q).normalized(group) {
			out[index[k]] = v
		}
	}
	return out
}

// sameSlice reports whether a and b are the same slice (pointer and length):
// exact for a query's one cached encoding, merely conservative for equal
// vectors held in different slices.
func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// NumParameters returns the total number of scalar parameters of the frozen
// network.
func (s *Snapshot) NumParameters() int { return s.net.NumParameters() }
