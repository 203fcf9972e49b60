package valuenet

// The per-sample float64 reference network: Figure 5's value network run on
// one sample at a time over linked trees (refTree, rebuilt from a sample's id
// space), allocating freely, written over the layers' exported weights. The product trains with the batched tape
// (train.go) and scores with the float32 Scorer (scorer.go); the parity
// tests hold both to this network, which no product code calls. It restates
// the per-sample MLP and the per-tree convolution that nn and treeconv keep
// in their own reference_test.go, because test files cannot be imported
// across packages; export_test.go lends it to the external tests.

import (
	"math"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// refTree is a plan's feature tree as the reference network reads it: a
// node has two children or none, and a leaf's nil children convolve as
// all-zero vectors, as the paper attaches zero-filled children to leaves.
type refTree struct {
	Data        []float64
	Left, Right *refTree
}

func newLeaf(data []float64) *refTree { return &refTree{Data: data} }

func newNode(data []float64, left, right *refTree) *refTree {
	return &refTree{Data: data, Left: left, Right: right}
}

// Walk visits every node in pre-order.
func (t *refTree) Walk(fn func(*refTree)) {
	if t == nil {
		return
	}
	fn(t)
	t.Left.Walk(fn)
	t.Right.Walk(fn)
}

// treeIDs numbers reference trees by pointer, children first: the id space
// (treeconv.Nodes) samples and scorers read them through. One tree is one id
// wherever it occurs, as one plan node is in a plan encoder, so forests that
// share a tree share its ids. The zero value is empty.
type treeIDs struct {
	rows        [][]float64
	left, right []int32
	ids         map[*refTree]int32
}

// Node implements treeconv.Nodes.
func (s *treeIDs) Node(id int32) (row []float64, left, right int32) {
	return s.rows[id], s.left[id], s.right[id]
}

// id returns t's id, numbering t and whatever below it is new.
func (s *treeIDs) id(t *refTree) int32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	l, r := int32(-1), int32(-1)
	if t.Left != nil {
		l, r = s.id(t.Left), s.id(t.Right)
	}
	if s.ids == nil {
		s.ids = make(map[*refTree]int32)
	}
	id := int32(len(s.rows))
	s.rows, s.left, s.right = append(s.rows, t.Data), append(s.left, l), append(s.right, r)
	s.ids[t] = id
	return id
}

// roots returns the ids of forest's trees.
func (s *treeIDs) roots(forest []*refTree) []int32 {
	out := make([]int32, len(forest))
	for i, t := range forest {
		out[i] = s.id(t)
	}
	return out
}

// forests returns the root ids of every forest.
func (s *treeIDs) forests(forests [][]*refTree) [][]int32 {
	out := make([][]int32, len(forests))
	for i, f := range forests {
		out[i] = s.roots(f)
	}
	return out
}

// sample is the training sample of forest under query vector q.
func (s *treeIDs) sample(q []float64, forest []*refTree, target float64) Sample {
	return Sample{Query: q, Nodes: s, Roots: s.roots(forest), Target: target}
}

// treesOf rebuilds the forest roots names in nodes as reference trees.
func treesOf(nodes treeconv.Nodes, roots []int32) []*refTree {
	var tree func(id int32) *refTree
	tree = func(id int32) *refTree {
		row, l, r := nodes.Node(id)
		if l < 0 {
			return newLeaf(row)
		}
		return newNode(row, tree(l), tree(r))
	}
	out := make([]*refTree, len(roots))
	for i, id := range roots {
		out[i] = tree(id)
	}
	return out
}

// refState carries the intermediate activations of one reference forward
// pass.
type refState struct {
	qtape     *refMLPTape
	augmented []*refTree
	convTapes [][]refConvTape
	pooled    []float64
	// pooledOwner[c] records which tree supplied channel c's max, and
	// argmax[t][c] the node within tree t.
	pooledOwner []int
	argmax      [][]*refTree
	headTape    *refMLPTape
}

// refForward runs the network on one sample; the output is in normalised
// log-cost space.
func (n *Network) refForward(queryVec []float64, trees []*refTree) (*refState, float64) {
	st := &refState{}
	st.qtape = refMLPForward(n.qmlp, queryVec)
	g := st.qtape.output

	// Spatial replication: append g to every node vector.
	for _, t := range trees {
		st.augmented = append(st.augmented, mapTree(t, func(node *refTree) []float64 {
			return append(append(make([]float64, 0, len(node.Data)+len(g)), node.Data...), g...)
		}))
	}

	// Tree convolution per tree, then forest-wide dynamic pooling.
	channels := n.cfg.TreeChannels[len(n.cfg.TreeChannels)-1]
	st.pooled = make([]float64, channels)
	st.pooledOwner = make([]int, channels)
	for i := range st.pooled {
		st.pooled[i] = math.Inf(-1)
		st.pooledOwner[i] = -1
	}
	st.argmax = make([][]*refTree, len(st.augmented))
	for ti, t := range st.augmented {
		tapes := refConvForward(n.conv, t)
		st.convTapes = append(st.convTapes, tapes)
		pooled, argmax := refPool(tapes[len(tapes)-1].out)
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

	st.headTape = refMLPForward(n.head, st.pooled)
	return st, st.headTape.output[0]
}

// refBackward propagates the gradient of the (normalised-space) prediction,
// accumulating into the parameters' Grad.
func (n *Network) refBackward(st *refState, grad float64) {
	gradPooled := refMLPBackward(n.head, st.headTape, []float64{grad})

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
		tapes := st.convTapes[ti]
		gradTree := refPoolBackward(tapes[len(tapes)-1].out, st.argmax[ti], chanGrad)
		gradAug := refConvBackward(n.conv, tapes, gradTree)
		// Accumulate the query-part gradient from every augmented node.
		gradAug.Walk(func(node *refTree) {
			for i := 0; i < len(queryGrad); i++ {
				queryGrad[i] += node.Data[n.planDim+i]
			}
		})
	}
	refMLPBackward(n.qmlp, st.qtape, queryGrad)
}

// refPredict is the reference cost prediction, in the original cost domain.
func (n *Network) refPredict(queryVec []float64, trees []*refTree) float64 {
	_, out := n.refForward(queryVec, trees)
	return n.denormalize(out)
}

// refPredictNormalized is the reference prediction in normalised log-cost
// space, where the float32 scorer is held to it.
func (n *Network) refPredictNormalized(queryVec []float64, trees []*refTree) float64 {
	_, out := n.refForward(queryVec, trees)
	return out
}

// refTrainBatch takes one gradient step on samples, backpropagating every
// sample through its own forward tape, and returns the mean L2 loss in
// normalised space: the reference TrainBatch is held to.
func (n *Network) refTrainBatch(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	total := 0.0
	var cols []int
	for _, s := range samples {
		for c, x := range s.Query {
			if x != 0 {
				cols = append(cols, c)
			}
		}
		st, out := n.refForward(s.Query, treesOf(s.Nodes, s.Roots))
		loss, grad := nn.L2Loss(out, n.normalize(s.Target))
		total += loss
		n.refBackward(st, grad)
	}
	n.opt.MarkColumns(n.queryInput(), cols)
	n.opt.StepShards(n.Params(), nil, len(samples), 1)
	return total / float64(len(samples))
}

// refMLPTape records one per-sample pass through an nn.MLP.
type refMLPTape struct {
	inputs  [][]float64 // input to each Linear
	preAct  [][]float64 // Linear outputs (pre-activation)
	postAct [][]float64 // hidden activation outputs (input to norm, if any)
	output  []float64
}

func refMLPForward(m *nn.MLP, x []float64) *refMLPTape {
	tape := &refMLPTape{}
	cur := x
	last := len(m.Linears) - 1
	for i, lin := range m.Linears {
		tape.inputs = append(tape.inputs, cur)
		cur = refLinearForward(lin, cur)
		tape.preAct = append(tape.preAct, cur)
		if i == last {
			break
		}
		cur = refLeaky(m.Act.Alpha, cur)
		tape.postAct = append(tape.postAct, cur)
		if m.Norms[i] != nil {
			cur = refNormForward(m.Norms[i], cur)
		}
	}
	tape.output = cur
	return tape
}

// refMLPBackward propagates gradOut through the taped pass, accumulating
// parameter gradients, and returns the input gradient.
func refMLPBackward(m *nn.MLP, tape *refMLPTape, gradOut []float64) []float64 {
	grad := gradOut
	last := len(m.Linears) - 1
	for i := last; i >= 0; i-- {
		if i != last {
			if m.Norms[i] != nil {
				grad = refNormBackward(m.Norms[i], tape.postAct[i], grad)
			}
			grad = refLeakyGrad(m.Act.Alpha, tape.preAct[i], grad)
		}
		grad = refLinearBackward(m.Linears[i], tape.inputs[i], grad)
	}
	return grad
}

func refLinearForward(l *nn.Linear, x []float64) []float64 {
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		sum := l.B.Value[o]
		row := l.W.Value[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
	return y
}

func refLinearBackward(l *nn.Linear, x, gradOut []float64) []float64 {
	gradIn := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := gradOut[o]
		l.B.Grad[o] += g
		row := l.W.Value[o*l.In : (o+1)*l.In]
		gradRow := l.W.Grad[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			gradRow[i] += g * xi
			gradIn[i] += g * row[i]
		}
	}
	return gradIn
}

func refLeaky(alpha float64, x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			y[i] = v
		} else {
			y[i] = alpha * v
		}
	}
	return y
}

func refLeakyGrad(alpha float64, x, gradOut []float64) []float64 {
	gradIn := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = alpha * gradOut[i]
		}
	}
	return gradIn
}

func refMeanStd(x []float64, eps float64) (float64, float64) {
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	variance := 0.0
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(x))
	return mean, math.Sqrt(variance + eps)
}

func refNormForward(ln *nn.LayerNorm, x []float64) []float64 {
	mean, std := refMeanStd(x, ln.Eps)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = ln.Gamma.Value[i]*(v-mean)/std + ln.Beta.Value[i]
	}
	return y
}

func refNormBackward(ln *nn.LayerNorm, x, gradOut []float64) []float64 {
	n := float64(len(x))
	mean, std := refMeanStd(x, ln.Eps)
	xhat := make([]float64, len(x))
	for i, v := range x {
		xhat[i] = (v - mean) / std
	}
	dxhat := make([]float64, len(x))
	for i := range x {
		ln.Gamma.Grad[i] += gradOut[i] * xhat[i]
		ln.Beta.Grad[i] += gradOut[i]
		dxhat[i] = gradOut[i] * ln.Gamma.Value[i]
	}
	var sumDxhat, sumDxhatXhat float64
	for i := range x {
		sumDxhat += dxhat[i]
		sumDxhatXhat += dxhat[i] * xhat[i]
	}
	gradIn := make([]float64, len(x))
	for i := range x {
		gradIn[i] = (dxhat[i] - sumDxhat/n - xhat[i]*sumDxhatXhat/n) / std
	}
	return gradIn
}

// refConvTape records one layer of a per-tree convolution: its input, its
// pre-activation and its activated output, all shaped like the input tree.
type refConvTape struct{ in, pre, out *refTree }

// refConvForward runs t through every layer of s, one tape per layer.
func refConvForward(s *treeconv.Stack, t *refTree) []refConvTape {
	tapes := make([]refConvTape, len(s.Layers))
	for i, l := range s.Layers {
		pre := refConvolve(l, t)
		out := mapTree(pre, func(n *refTree) []float64 { return refLeaky(l.Act.Alpha, n.Data) })
		tapes[i] = refConvTape{in: t, pre: pre, out: out}
		t = out
	}
	return tapes
}

// refConvolve applies l's filterbank to every parent/left/right triangle of
// t, a leaf's missing children reading as zero vectors.
func refConvolve(l *treeconv.Layer, t *refTree) *refTree {
	if t == nil {
		return nil
	}
	out := make([]float64, l.OutChannels)
	leftData := refZerosIfNil(t.Left, l.InChannels)
	rightData := refZerosIfNil(t.Right, l.InChannels)
	for o := 0; o < l.OutChannels; o++ {
		sum := l.Bias.Value[o]
		ep := l.EP.Value[o*l.InChannels : (o+1)*l.InChannels]
		el := l.EL.Value[o*l.InChannels : (o+1)*l.InChannels]
		er := l.ER.Value[o*l.InChannels : (o+1)*l.InChannels]
		for i := 0; i < l.InChannels; i++ {
			sum += ep[i] * t.Data[i]
			sum += el[i] * leftData[i]
			sum += er[i] * rightData[i]
		}
		out[o] = sum
	}
	return newNode(out, refConvolve(l, t.Left), refConvolve(l, t.Right))
}

// refConvBackward propagates a gradient tree shaped like the last layer's
// output back through every layer, accumulating filter gradients, and
// returns the gradient tree of the input.
func refConvBackward(s *treeconv.Stack, tapes []refConvTape, gradOut *refTree) *refTree {
	grad := gradOut
	for i := len(s.Layers) - 1; i >= 0; i-- {
		l, tape := s.Layers[i], tapes[i]
		gradPre := refZipTree(tape.pre, grad, func(pre, g []float64) []float64 { return refLeakyGrad(l.Act.Alpha, pre, g) })
		grad = mapTree(tape.in, func(*refTree) []float64 { return make([]float64, l.InChannels) })
		refConvBackwardNode(l, tape.in, gradPre, grad)
	}
	return grad
}

// refConvBackwardNode handles one parent/left/right triangle, then recurses
// in pre-order.
func refConvBackwardNode(l *treeconv.Layer, in, gradPre, gradIn *refTree) {
	if in == nil || gradPre == nil {
		return
	}
	leftData := refZerosIfNil(in.Left, l.InChannels)
	rightData := refZerosIfNil(in.Right, l.InChannels)
	for o := 0; o < l.OutChannels; o++ {
		g := gradPre.Data[o]
		if g == 0 {
			continue
		}
		l.Bias.Grad[o] += g
		ep := l.EP.Value[o*l.InChannels : (o+1)*l.InChannels]
		el := l.EL.Value[o*l.InChannels : (o+1)*l.InChannels]
		er := l.ER.Value[o*l.InChannels : (o+1)*l.InChannels]
		epg := l.EP.Grad[o*l.InChannels : (o+1)*l.InChannels]
		elg := l.EL.Grad[o*l.InChannels : (o+1)*l.InChannels]
		erg := l.ER.Grad[o*l.InChannels : (o+1)*l.InChannels]
		for i := 0; i < l.InChannels; i++ {
			epg[i] += g * in.Data[i]
			elg[i] += g * leftData[i]
			erg[i] += g * rightData[i]
			gradIn.Data[i] += g * ep[i]
			if in.Left != nil {
				gradIn.Left.Data[i] += g * el[i]
				gradIn.Right.Data[i] += g * er[i]
			}
		}
	}
	refConvBackwardNode(l, in.Left, gradPre.Left, gradIn.Left)
	refConvBackwardNode(l, in.Right, gradPre.Right, gradIn.Right)
}

// refPool is dynamic pooling: the channel-wise maximum over t's nodes,
// visited in pre-order under strict comparison, and the node that supplied
// each channel.
func refPool(t *refTree) (pooled []float64, argmax []*refTree) {
	pooled = make([]float64, len(t.Data))
	argmax = make([]*refTree, len(t.Data))
	for i := range pooled {
		pooled[i] = math.Inf(-1)
	}
	t.Walk(func(n *refTree) {
		for i, v := range n.Data {
			if v > pooled[i] {
				pooled[i] = v
				argmax[i] = n
			}
		}
	})
	return pooled, argmax
}

// refPoolBackward routes each channel's gradient to the node argmax names:
// a gradient tree shaped like t, zero everywhere else.
func refPoolBackward(t *refTree, argmax []*refTree, grad []float64) *refTree {
	return mapTree(t, func(n *refTree) []float64 {
		g := make([]float64, len(t.Data))
		for c, src := range argmax {
			if src == n {
				g[c] += grad[c]
			}
		}
		return g
	})
}

func refZerosIfNil(t *refTree, dim int) []float64 {
	if t == nil {
		return make([]float64, dim)
	}
	return t.Data
}

// mapTree returns a tree shaped like t whose node vectors are fn(node).
func mapTree(t *refTree, fn func(*refTree) []float64) *refTree {
	if t == nil {
		return nil
	}
	return newNode(fn(t), mapTree(t.Left, fn), mapTree(t.Right, fn))
}

// refZipTree returns a tree shaped like a and b whose node vectors are fn of
// theirs.
func refZipTree(a, b *refTree, fn func(av, bv []float64) []float64) *refTree {
	if a == nil || b == nil {
		return nil
	}
	return newNode(fn(a.Data, b.Data), refZipTree(a.Left, b.Left, fn), refZipTree(a.Right, b.Right, fn))
}
