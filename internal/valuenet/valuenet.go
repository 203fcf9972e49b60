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
// log-costs; a Scorer returns values in the original cost domain.
//
// A plan reaches the network one way: as root ids in an id space
// (treeconv.Nodes, a plan encoder in the product). The product trains one
// way (TrainBatch, train.go) and scores one way (Scorer, scorer.go). The
// per-sample float64 reference network both are parity-tested against lives
// in internal/reftest, which only tests import.
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
// complete) plan — its roots' ids in the id space Nodes — and the target cost
// (the best cost of any complete plan containing it, per the paper's
// training objective). Samples of one experience entry share one id space,
// so the subtrees their states share are convolved once per shard.
type Sample struct {
	Query  []float64
	Nodes  treeconv.Nodes
	Roots  []int32
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
