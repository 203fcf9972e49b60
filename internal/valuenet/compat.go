// Benchmark compatibility: PredictBatch keeps the benchmark harness's probe
// (benchmark/probe.go) compiling, with feature.EncodePlan and treeconv.Tree.
// Delete it once the probe scores through NewScorer over one plan encoder
// per search.
package valuenet

import "neo/internal/treeconv"

// PredictBatch returns the cost predictions (in the original cost domain)
// for a slice of encoded (query, plan-forest) pairs, a forest being root
// references that may come from different id spaces. The pairs are grouped by
// query vector (sameSlice); each group's roots are interned into one
// treeconv.Subtrees table and scored by one Scorer over it, so the scores
// are a Scorer's bits. Safe for concurrent use.
func (s *Snapshot) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	if len(queries) != len(forests) {
		panic("valuenet: PredictBatch queries/forests length mismatch")
	}
	out := make([]float64, len(queries))
	done := make([]bool, len(queries))
	for i, q := range queries {
		if done[i] {
			continue
		}
		var tab treeconv.Subtrees
		var roots [][]int32
		var index []int
		for j := i; j < len(queries); j++ {
			if done[j] || !sameSlice(queries[j], q) {
				continue
			}
			ids := make([]int32, len(forests[j]))
			for k, t := range forests[j] {
				ids[k] = tab.Add(t.Nodes, t.ID, 0)
			}
			roots = append(roots, ids)
			index = append(index, j)
			done[j] = true
		}
		for k, v := range s.NewScorer(q, &tab).Score(roots) {
			out[index[k]] = v
		}
	}
	return out
}
