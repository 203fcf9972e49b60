// Package valuenet implements Neo's value network (Section 4 and Appendix A
// of the paper): a deep neural network that maps a (query-level encoding,
// plan-level encoding) pair to a prediction of the best-possible cost
// reachable from that (partial) plan.
//
// The architecture follows Figure 5: the query-level encoding passes through
// a stack of fully connected layers; the resulting vector is concatenated to
// every plan-tree node ("spatial replication"); the augmented forest passes
// through several tree-convolution layers; dynamic pooling flattens the
// forest into a fixed-size vector; and a final stack of fully connected
// layers produces a single scalar.
//
// Costs span orders of magnitude, so the network is trained on standardised
// log-costs; Predict returns values in the original cost domain.
package valuenet

import (
	"math"
	"math/rand"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// Config describes the network architecture and optimisation
// hyperparameters.
type Config struct {
	// QueryLayers are the fully connected layer sizes applied to the
	// query-level encoding (the paper uses 128, 64, 32).
	QueryLayers []int
	// TreeChannels are the tree-convolution output channel counts (the paper
	// uses 512, 256, 128; the default is smaller for speed).
	TreeChannels []int
	// HeadLayers are the fully connected layer sizes after dynamic pooling
	// (the paper uses 128, 64, 32 before the final output).
	HeadLayers []int
	// LearningRate is the Adam learning rate.
	LearningRate float64
	// UseLayerNorm enables layer normalisation inside the MLPs.
	UseLayerNorm bool
	// Seed seeds weight initialisation.
	Seed int64
}

// DefaultConfig returns a configuration small enough to train in seconds but
// structurally identical to the paper's network.
func DefaultConfig() Config {
	return Config{
		QueryLayers:  []int{64, 32},
		TreeChannels: []int{32, 32, 16},
		HeadLayers:   []int{32, 16},
		LearningRate: 1e-3,
		UseLayerNorm: true,
		Seed:         1,
	}
}

// PaperConfig returns the layer sizes reported in Figure 5 of the paper.
func PaperConfig() Config {
	return Config{
		QueryLayers:  []int{128, 64, 32},
		TreeChannels: []int{512, 256, 128},
		HeadLayers:   []int{128, 64, 32},
		LearningRate: 1e-3,
		UseLayerNorm: true,
		Seed:         1,
	}
}

// Sample is one training example: an encoded query, an encoded (partial or
// complete) plan, and the target cost (the best cost of any complete plan
// containing it, per the paper's training objective).
type Sample struct {
	Query  []float64
	Plan   []*treeconv.Tree
	Target float64
}

// Network is the value network.
type Network struct {
	cfg      Config
	queryDim int
	planDim  int

	qmlp *nn.MLP
	conv *treeconv.Stack
	head *nn.MLP
	opt  *nn.Adam

	// train holds the reusable batched-training state (gradient shards and
	// their scratch); nil until the first TrainBatch call.
	train *trainer

	targetTransform
}

// targetTransform is the standardisation applied to log-costs: the network
// is trained on, and outputs, (log1p(cost) − targetMean) / targetStd.
type targetTransform struct {
	targetMean, targetStd float64
}

// New creates a value network for the given query- and plan-vector
// dimensions. cfg must name every layer size (see DefaultConfig).
func New(queryDim, planDim int, cfg Config) *Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	qSizes := append([]int{queryDim}, cfg.QueryLayers...)
	qOut := qSizes[len(qSizes)-1]
	convSizes := append([]int{planDim + qOut}, cfg.TreeChannels...)
	headSizes := append(append([]int{convSizes[len(convSizes)-1]}, cfg.HeadLayers...), 1)
	n := &Network{
		cfg:      cfg,
		queryDim: queryDim,
		planDim:  planDim,
		qmlp:     nn.NewMLP(qSizes, cfg.UseLayerNorm, rng),
		conv:     treeconv.NewStack(convSizes, rng),
		head:     nn.NewMLP(headSizes, cfg.UseLayerNorm, rng),
		opt:      nn.NewAdam(cfg.LearningRate),

		targetTransform: targetTransform{targetStd: 1},
	}
	// The query tower reads the encoding as data: most of its input columns
	// are never non-zero, and the optimizer walks only those that have been.
	n.opt.TrackColumns(n.queryInput(), queryDim)
	return n
}

// queryInput is the query tower's input-layer weight matrix, whose live
// columns the optimizer tracks.
func (n *Network) queryInput() *nn.Param { return n.qmlp.Linears[0].W }

// Params returns every trainable parameter.
func (n *Network) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, n.qmlp.Params()...)
	out = append(out, n.conv.Params()...)
	out = append(out, n.head.Params()...)
	return out
}

// NumParameters returns the total number of scalar parameters.
func (n *Network) NumParameters() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value)
	}
	return total
}

// FitTargetTransform computes the standardisation applied to log-costs from
// a set of observed costs. Call it before training (and again whenever the
// experience changes substantially).
func (n *Network) FitTargetTransform(costs []float64) {
	if len(costs) == 0 {
		n.targetMean, n.targetStd = 0, 1
		return
	}
	var sum float64
	logs := make([]float64, len(costs))
	for i, c := range costs {
		logs[i] = math.Log1p(math.Max(c, 0))
		sum += logs[i]
	}
	mean := sum / float64(len(logs))
	var variance float64
	for _, l := range logs {
		variance += (l - mean) * (l - mean)
	}
	variance /= float64(len(logs))
	std := math.Sqrt(variance)
	if std < 1e-6 {
		std = 1
	}
	n.targetMean, n.targetStd = mean, std
}

func (t targetTransform) normalize(cost float64) float64 {
	return (math.Log1p(math.Max(cost, 0)) - t.targetMean) / t.targetStd
}

func (t targetTransform) denormalize(v float64) float64 {
	return math.Expm1(v*t.targetStd + t.targetMean)
}

// forwardState carries the intermediate activations of one forward pass.
type forwardState struct {
	qtape     *nn.MLPTape
	augmented []*treeconv.Tree
	convTapes []*treeconv.StackTape
	pooled    []float64
	// pooledOwner[i] records which tree supplied channel i's max, and
	// argmax[i] the node within that tree.
	pooledOwner []int
	argmax      [][]*treeconv.Tree
	headTape    *nn.MLPTape
}

// forward runs the network; output is in normalised log-cost space.
func (n *Network) forward(queryVec []float64, trees []*treeconv.Tree) (*forwardState, float64) {
	st := &forwardState{}
	st.qtape = n.qmlp.Forward(queryVec)
	g := st.qtape.Output()

	// Spatial replication: append g to every node vector.
	for _, t := range trees {
		st.augmented = append(st.augmented, t.Map(func(node *treeconv.Tree) []float64 {
			return nn.Concat(node.Data, g)
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
	st.argmax = make([][]*treeconv.Tree, len(st.augmented))
	for ti, t := range st.augmented {
		tape := n.conv.Forward(t)
		st.convTapes = append(st.convTapes, tape)
		pooled, argmax := treeconv.DynamicPool(tape.Output())
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

	st.headTape = n.head.Forward(st.pooled)
	return st, st.headTape.Output()[0]
}

// backward propagates the gradient of the (normalised-space) prediction.
func (n *Network) backward(st *forwardState, grad float64) {
	gradPooled := n.head.Backward(st.headTape, []float64{grad})

	// Split the pooled gradient per owning tree.
	queryGrad := make([]float64, len(st.qtape.Output()))
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
		convOut := st.convTapes[ti].Output()
		gradTree := treeconv.PoolBackward(convOut, st.argmax[ti], chanGrad)
		gradAug := n.conv.Backward(st.convTapes[ti], gradTree)
		// Accumulate the query-part gradient from every augmented node.
		gradAug.Walk(func(node *treeconv.Tree) {
			for i := 0; i < len(queryGrad); i++ {
				queryGrad[i] += node.Data[n.planDim+i]
			}
		})
	}
	n.qmlp.Backward(st.qtape, queryGrad)
}

// Predict returns the network's cost prediction (in the original cost
// domain) for an encoded query and plan.
func (n *Network) Predict(queryVec []float64, trees []*treeconv.Tree) float64 {
	_, out := n.forward(queryVec, trees)
	return n.denormalize(out)
}

// PredictNormalized returns the raw network output in normalised log-cost
// space: the per-sample reference for Snapshot.PredictBatchNormalized, which
// the Figure 14 robustness analysis histograms.
func (n *Network) PredictNormalized(queryVec []float64, trees []*treeconv.Tree) float64 {
	_, out := n.forward(queryVec, trees)
	return out
}

// TrainBatchPerSample performs one gradient step on a batch of samples with
// a full per-example forward/backward tape, and returns the mean L2 loss (in
// normalised space). It is the reference implementation the batched
// TrainBatch (train.go) is parity-tested against; the training loop itself
// uses TrainBatch.
func (n *Network) TrainBatchPerSample(samples []Sample) float64 {
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
		st, out := n.forward(s.Query, s.Plan)
		loss, grad := nn.L2Loss(out, n.normalize(s.Target))
		total += loss
		n.backward(st, grad)
	}
	n.opt.MarkColumns(n.queryInput(), cols)
	n.opt.Step(n.Params(), len(samples))
	return total / float64(len(samples))
}

// Train runs epochs of minibatch training over the samples, in batches of
// batchSize (> 0), using the batched TrainBatch pipeline and returns the
// final epoch's mean loss.
func (n *Network) Train(samples []Sample, epochs, batchSize int, rng *rand.Rand) float64 {
	if len(samples) == 0 {
		return 0
	}
	costs := make([]float64, len(samples))
	for i, s := range samples {
		costs[i] = s.Target
	}
	n.FitTargetTransform(costs)
	var last float64
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	batch := make([]Sample, 0, min(batchSize, len(samples)))
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += batchSize {
			end := min(start+batchSize, len(idx))
			batch = batch[:0]
			for _, i := range idx[start:end] {
				batch = append(batch, samples[i])
			}
			epochLoss += n.TrainBatch(batch)
			batches++
		}
		last = epochLoss / float64(batches)
	}
	return last
}
