package valuenet

import (
	"neo/internal/reftest"
	"neo/internal/treeconv"
)

// RefPredict is the per-sample float64 reference network's cost prediction
// (reference_test.go) for the forest roots names in nodes, lent to the
// external tests.
func RefPredict(n *Network, queryVec []float64, nodes treeconv.Nodes, roots []int32) float64 {
	return n.refPredict(queryVec, reftest.Trees(nodes, roots))
}
