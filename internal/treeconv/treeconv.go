// Package treeconv implements tree convolution and dynamic pooling (Mou et
// al., "Convolutional Neural Networks over Tree Structures"), the operations
// Neo's value network uses to process tree-structured execution plans
// (Section 4.1 and Appendix A of the paper).
//
// A tree convolution filter consists of three weight vectors (e_p, e_l, e_r)
// applied to every parent/left-child/right-child triangle of the tree; a
// filterbank of c_out such filters maps a tree whose nodes carry c_in-channel
// vectors to a structurally identical tree whose nodes carry c_out channels.
// Dynamic pooling takes the elementwise maximum over all node vectors,
// flattening a variable-shaped tree into a fixed-size vector.
//
// A plan reaches the package as node ids in an id space (Nodes, in
// subtrees.go): each id names a node's row and its children's ids. Neither
// the training tape nor the scorer sees a linked tree.
package treeconv

import (
	"fmt"
	"math"
	"math/rand"

	"neo/internal/nn"
)

// Layer is a tree-convolution layer: a filterbank of OutChannels filters over
// InChannels input channels, followed by a leaky-ReLU activation.
type Layer struct {
	InChannels, OutChannels int
	// EP, EL, ER are the parent / left-child / right-child weight matrices,
	// each OutChannels×InChannels (row-major), plus a bias per filter.
	EP, EL, ER *nn.Param
	Bias       *nn.Param
	Act        *nn.LeakyReLU

	// Packed, when set, is [EP; EL; ER] and Bias transposed for the vector
	// forward kernel, which Stack.RecordBatch then runs when
	// nn.VectorKernels. Whoever sets it must Pack it after every change to
	// the weights.
	Packed *nn.PackedF64
}

// Pack refills l.Packed from the layer's weights.
func (l *Layer) Pack() {
	l.Packed.Pack(l.InChannels, l.OutChannels, l.Bias.Value, l.EP.Value, l.EL.Value, l.ER.Value)
}

// NewLayer creates a tree convolution layer with random initialisation.
func NewLayer(in, out int, rng *rand.Rand) *Layer {
	mk := func(name string) *nn.Param {
		p := &nn.Param{Name: name, Value: make([]float64, in*out), Grad: make([]float64, in*out)}
		bound := math.Sqrt(2.0 / float64(3*in))
		for i := range p.Value {
			p.Value[i] = (rng.Float64()*2 - 1) * bound
		}
		return p
	}
	return &Layer{
		InChannels:  in,
		OutChannels: out,
		EP:          mk(fmt.Sprintf("treeconv_%dx%d_ep", out, in)),
		EL:          mk(fmt.Sprintf("treeconv_%dx%d_el", out, in)),
		ER:          mk(fmt.Sprintf("treeconv_%dx%d_er", out, in)),
		Bias:        &nn.Param{Name: fmt.Sprintf("treeconv_%dx%d_b", out, in), Value: make([]float64, out), Grad: make([]float64, out)},
		Act:         nn.NewLeakyReLU(),
	}
}

// Params returns the layer's trainable parameters.
func (l *Layer) Params() []*nn.Param { return []*nn.Param{l.EP, l.EL, l.ER, l.Bias} }

// Stack is a sequence of tree-convolution layers applied back to back.
type Stack struct {
	Layers []*Layer
}

// NewStack builds a stack with the given channel sizes, e.g. channels =
// [in, 64, 64, 32] creates three layers.
func NewStack(channels []int, rng *rand.Rand) *Stack {
	if len(channels) < 2 {
		panic("treeconv: NewStack needs at least two channel counts")
	}
	s := &Stack{}
	for i := 0; i+1 < len(channels); i++ {
		s.Layers = append(s.Layers, NewLayer(channels[i], channels[i+1], rng))
	}
	return s
}

// Params returns every layer's trainable parameters, in order.
func (s *Stack) Params() []*nn.Param {
	var out []*nn.Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
