package reftest

import "math"

// Network is Figure 5's value network: the query tower, spatial
// replication of its output onto every plan node, the tree convolution,
// dynamic pooling over the whole forest and the head. PlanDim is the width
// of a plan node's own vector.
type Network struct {
	Query   *MLP
	Conv    Stack
	Head    *MLP
	PlanDim int
}

// State carries the intermediate activations of one forward pass.
type State struct {
	qtape     *MLPTape
	augmented []*Tree
	convTapes []StackTape
	pooled    []float64
	// pooledOwner[c] records which tree supplied channel c's max, and
	// argmax[t][c] the node within tree t.
	pooledOwner []int
	argmax      [][]*Tree
	headTape    *MLPTape
}

// Forward runs the network on one sample and returns its tape and its
// output, in the normalised log-cost space the network is trained in.
func (n *Network) Forward(queryVec []float64, trees []*Tree) (*State, float64) {
	st := &State{}
	st.qtape = n.Query.Forward(queryVec)
	g := st.qtape.output

	// Spatial replication: append g to every node vector.
	for _, t := range trees {
		st.augmented = append(st.augmented, t.Map(func(node *Tree) []float64 {
			return append(append(make([]float64, 0, len(node.Data)+len(g)), node.Data...), g...)
		}))
	}

	// Tree convolution per tree, then forest-wide dynamic pooling.
	channels := n.Conv[len(n.Conv)-1].Out
	st.pooled = make([]float64, channels)
	st.pooledOwner = make([]int, channels)
	for i := range st.pooled {
		st.pooled[i] = math.Inf(-1)
		st.pooledOwner[i] = -1
	}
	st.argmax = make([][]*Tree, len(st.augmented))
	for ti, t := range st.augmented {
		tape := n.Conv.Forward(t)
		st.convTapes = append(st.convTapes, tape)
		pooled, argmax := Pool(tape.Output())
		st.argmax[ti] = argmax
		for c := 0; c < channels && c < len(pooled); c++ {
			if pooled[c] > st.pooled[c] {
				st.pooled[c] = pooled[c]
				st.pooledOwner[c] = ti
			}
		}
	}
	for c := range st.pooled {
		if math.IsInf(st.pooled[c], -1) {
			st.pooled[c] = 0
		}
	}

	st.headTape = n.Head.Forward(st.pooled)
	return st, st.headTape.output[0]
}

// Backward propagates the gradient of the output, accumulating into the
// parameters' gradients.
func (n *Network) Backward(st *State, grad float64) {
	gradPooled := n.Head.Backward(st.headTape, []float64{grad})

	// Split the pooled gradient per owning tree.
	queryGrad := make([]float64, len(st.qtape.output))
	for ti := range st.augmented {
		chanGrad := make([]float64, len(gradPooled))
		any := false
		for c, owner := range st.pooledOwner {
			if owner == ti {
				chanGrad[c] = gradPooled[c]
				if gradPooled[c] != 0 {
					any = true
				}
			}
		}
		if !any {
			continue
		}
		tape := st.convTapes[ti]
		gradTree := PoolBackward(tape.Output(), st.argmax[ti], chanGrad)
		gradAug := n.Conv.Backward(tape, gradTree)
		// Accumulate the query-part gradient from every augmented node.
		gradAug.Walk(func(node *Tree) {
			for i := 0; i < len(queryGrad); i++ {
				queryGrad[i] += node.Data[n.PlanDim+i]
			}
		})
	}
	n.Query.Backward(st.qtape, queryGrad)
}
