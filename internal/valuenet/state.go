// Value-network state serialization. Save captures everything a Snapshot and
// TrainBatch depend on — input dimensions, the target standardisation, every
// trainable parameter of the query tower / tree-convolution stack / head,
// and the Adam step counter and moments — so a loaded network both predicts
// bit-identically and resumes its optimization trajectory exactly where the
// saved one stopped. Load restores in place: shadow-gradient shards created
// by earlier TrainBatch calls share parameter storage with the live network
// and therefore see the restored weights too.
package valuenet

import (
	"fmt"
	"io"

	"neo/internal/nn"
	"neo/internal/wire"
)

// CloneTrainable returns a deep copy of the network — same architecture,
// weights and target transform, fully independent parameter storage — with
// its optimizer state (Adam step counter and moments): training the copy
// continues the original's trajectory exactly. It is what a checkpoint is
// written from, so saving never reads a network a retraining round may be
// mutating.
func (n *Network) CloneTrainable() *Network {
	c := New(n.queryDim, n.planDim, n.cfg)
	src, dst := n.Params(), c.Params()
	for i, p := range src {
		copy(dst[i].Value, p.Value)
	}
	c.targetTransform = n.targetTransform
	c.opt.CopyState(n.opt, src, dst)
	return c
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// TargetTransform returns the log-cost standardisation fitted by
// FitTargetTransform.
func (n *Network) TargetTransform() (mean, std float64) { return n.targetMean, n.targetStd }

// SetTargetTransform restores a standardisation captured by TargetTransform.
func (n *Network) SetTargetTransform(mean, std float64) {
	if std == 0 {
		std = 1
	}
	n.targetMean, n.targetStd = mean, std
}

// Save writes the network's full trainable state: dimensions, target
// transform, parameters and optimizer state.
func (n *Network) Save(w io.Writer) error {
	if err := wire.WriteU32(w, uint32(n.queryDim)); err != nil {
		return err
	}
	if err := wire.WriteU32(w, uint32(n.planDim)); err != nil {
		return err
	}
	if err := wire.WriteF64(w, n.targetMean); err != nil {
		return err
	}
	if err := wire.WriteF64(w, n.targetStd); err != nil {
		return err
	}
	params := n.Params()
	if err := nn.SaveParams(w, params); err != nil {
		return err
	}
	return n.opt.Save(w, params)
}

// Load restores state written by Save into the receiver, in place. The
// receiver must have been constructed with the same dimensions and
// architecture as the saved network; any mismatch is an error and leaves the
// receiver partially updated, so treat a failed Load as fatal for the
// receiver.
func (n *Network) Load(r io.Reader) error {
	qd, err := wire.ReadU32(r)
	if err != nil {
		return err
	}
	pd, err := wire.ReadU32(r)
	if err != nil {
		return err
	}
	if int(qd) != n.queryDim || int(pd) != n.planDim {
		return fmt.Errorf("valuenet: saved network has dims %dx%d, receiver has %dx%d",
			qd, pd, n.queryDim, n.planDim)
	}
	mean, err := wire.ReadF64(r)
	if err != nil {
		return err
	}
	std, err := wire.ReadF64(r)
	if err != nil {
		return err
	}
	params := n.Params()
	if err := nn.LoadParams(r, params); err != nil {
		return err
	}
	if err := n.opt.Load(r, params); err != nil {
		return err
	}
	n.SetTargetTransform(mean, std)
	return nil
}
