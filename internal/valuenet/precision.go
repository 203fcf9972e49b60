// Scoring precision. Training always runs in float64; a Snapshot — the
// frozen network the search path scores plans against — can additionally be
// published in float32 form. The conversion happens exactly once, at snapshot
// time: weights are re-packed into the tiled-GEMM panels of internal/nn, and
// the scorer (scorer.go) then never touches float64 between the input-encode
// boundary (query/plan vectors → float32 rows) and the output boundary
// (normalised prediction → float64 denormalization).
//
// Precision is snapshot-only state: the float64 master weights are carried
// unchanged inside every snapshot (they are what checkpoints save), so
// serving float32 never perturbs training or persistence.
package valuenet

import (
	"fmt"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// Precision selects the numeric format a snapshot scores with.
type Precision uint8

const (
	// PrecisionFloat64 scores with the float64 training kernels (exact).
	PrecisionFloat64 Precision = iota
	// PrecisionFloat32 scores with the packed float32 tiled-GEMM kernels.
	PrecisionFloat32
)

// String returns the canonical flag spelling.
func (p Precision) String() string {
	if p == PrecisionFloat32 {
		return "float32"
	}
	return "float64"
}

// ParsePrecision parses a -score-precision flag value. The empty string means
// float64 (the exact, historical behaviour).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64":
		return PrecisionFloat64, nil
	case "float32", "f32":
		return PrecisionFloat32, nil
	}
	return PrecisionFloat64, fmt.Errorf("valuenet: unknown score precision %q (want float64 or float32)", s)
}

// netF32 is the packed float32 form of a network's three towers.
type netF32 struct {
	qmlp *nn.MLPF32
	conv *treeconv.StackF32
	head *nn.MLPF32
}

// SnapshotInfo describes a snapshot's scoring precision and memory footprint.
type SnapshotInfo struct {
	// Precision is the numeric format scoring runs in ("float64" or
	// "float32").
	Precision string `json:"precision"`
	// Parameters is the number of scalar parameters of the frozen network.
	Parameters int `json:"parameters"`
	// ParamBytes is the float64 master copy's parameter footprint.
	ParamBytes int `json:"param_bytes"`
	// PanelBytes is the footprint of the packed inference panels (0 for a
	// float64 snapshot, which scores with the master weights).
	PanelBytes int `json:"panel_bytes"`
}

// Info reports the snapshot's precision and footprint.
func (s *Snapshot) Info() SnapshotInfo {
	info := SnapshotInfo{
		Precision:  s.Precision().String(),
		Parameters: s.net.NumParameters(),
	}
	info.ParamBytes = 8 * info.Parameters
	if s.f32 != nil {
		info.PanelBytes = s.f32.qmlp.Bytes() + s.f32.conv.Bytes() + s.f32.head.Bytes()
	}
	return info
}

// Precision returns the numeric format scoring runs in.
func (s *Snapshot) Precision() Precision {
	if s.f32 != nil {
		return PrecisionFloat32
	}
	return PrecisionFloat64
}

// SnapshotPrecision deep-copies the network like Snapshot and additionally
// converts the frozen weights for the requested scoring precision. Like
// Snapshot, call it only while no training round is mutating the weights.
func (n *Network) SnapshotPrecision(p Precision) *Snapshot {
	s := &Snapshot{net: n.Clone()}
	if p == PrecisionFloat32 {
		s.f32 = &netF32{
			qmlp: nn.NewMLPF32(s.net.qmlp),
			conv: treeconv.NewStackF32(s.net.conv),
			head: nn.NewMLPF32(s.net.head),
		}
	}
	return s
}
