// Float32 batched tree convolution for the frozen inference path.
// The float64 batched kernels in batch.go walk node-by-node, dotting each
// parent/left/right triangle against row-major weights; the kernels here
// restructure the same computation as GEMMs over packed panels (nn.PackedF32)
// so the whole batch of nodes runs through the fused-multiply-add micro-
// kernel:
//
//   - each layer's three filter matrices are packed once, at snapshot time,
//     as one panel matrix over the concatenated K = [EP; EL; ER] axis;
//   - per batch, nodes are split once into leaves and interior nodes; leaves
//     gather only their own row and run the GEMM over the EP K-prefix
//     (keeping the float64 path's leaf-skip optimisation), interior nodes
//     gather [x; left; right] rows (zeros for an absent child) and run the
//     full K;
//   - outputs scatter back to node order and the leaky rectifier runs once
//     over the whole activation matrix.
//
// The containers (Batch, BatchBuilder, BatchScratch, PoolBatch) are the
// generic ones of batch.go instantiated at float32; only the kernels differ.
package treeconv

import "neo/internal/nn"

// partition splits the batch's nodes into leaves and interior nodes once per
// forward pass; every layer reuses the split (structure does not change
// between layers).
func (s *BatchScratch[T]) partition(b *Batch[T]) {
	s.leaf = s.leaf[:0]
	s.full = s.full[:0]
	for n := 0; n < b.N; n++ {
		if b.Left[n] < 0 && b.Right[n] < 0 {
			s.leaf = append(s.leaf, n)
		} else {
			s.full = append(s.full, n)
		}
	}
}

// LayerF32 is one packed tree-convolution layer: the three filter matrices
// packed over the concatenated K = [EP; EL; ER] axis, EP first so the leaf
// kernel can run the GEMM over the EP K-prefix alone.
type LayerF32 struct {
	In, Out int
	W       nn.PackedF32
	Alpha   float32
}

// StackF32 is a frozen float32 tree-convolution stack, packed once from
// trained float64 weights. Immutable after construction; safe for concurrent
// use with per-goroutine scratch.
type StackF32 struct {
	Layers []*LayerF32
}

// NewStackF32 packs a trained stack for float32 inference.
func NewStackF32(s *Stack) *StackF32 {
	out := &StackF32{}
	for _, l := range s.Layers {
		out.Layers = append(out.Layers, &LayerF32{
			In:  l.InChannels,
			Out: l.OutChannels,
			W: nn.PackF32(l.OutChannels, l.Bias.Value,
				[]int{l.InChannels, l.InChannels, l.InChannels},
				l.EP.Value, l.EL.Value, l.ER.Value),
			Alpha: float32(l.Act.Alpha),
		})
	}
	return out
}

// Bytes returns the packed footprint in bytes.
func (s *StackF32) Bytes() int {
	total := 0
	for _, l := range s.Layers {
		total += l.W.Bytes()
	}
	return total
}

// ForwardBatch runs every packed layer over the flattened batch. The returned
// batch aliases scratch storage and is valid until the next Reset.
func (s *StackF32) ForwardBatch(in *Batch[float32], scratch *BatchScratch[float32]) *Batch[float32] {
	scratch.partition(in)
	cur := in
	for _, l := range s.Layers {
		out := scratch.next(cur, l.Out)
		l.forwardBatchInto(cur, out, scratch)
		cur = out
	}
	return cur
}

// forwardBatchInto convolves one packed layer: gather → GEMM → scatter for
// the leaf and interior node groups, then one activation pass over the whole
// output matrix.
func (l *LayerF32) forwardBatchInto(in, out *Batch[float32], scratch *BatchScratch[float32]) {
	ic, oc := l.In, l.Out
	a := &scratch.Arena

	// Leaves: only the parent filter contributes, so gather just the node row
	// and run the GEMM over the EP K-prefix (kUsed = ic of K = 3ic).
	if nl := len(scratch.leaf); nl > 0 {
		ga := a.Alloc(nl * ic)
		for gi, n := range scratch.leaf {
			copy(ga[gi*ic:(gi+1)*ic], in.Row(n))
		}
		ya := a.Alloc(nl * oc)
		l.W.Gemm(ga, nl, ic, ya)
		for gi, n := range scratch.leaf {
			copy(out.Data[n*oc:(n+1)*oc], ya[gi*oc:(gi+1)*oc])
		}
	}

	// Interior nodes: gather [x; left; right] (zeros for an absent child of a
	// one-child node) and run the full K.
	if nf := len(scratch.full); nf > 0 {
		k := 3 * ic
		ga := a.Alloc(nf * k)
		for gi, n := range scratch.full {
			row := ga[gi*k : (gi+1)*k]
			copy(row[:ic], in.Row(n))
			if li := in.Left[n]; li >= 0 {
				copy(row[ic:2*ic], in.Row(li))
			} else {
				clear(row[ic : 2*ic])
			}
			if ri := in.Right[n]; ri >= 0 {
				copy(row[2*ic:], in.Row(ri))
			} else {
				clear(row[2*ic:])
			}
		}
		ya := a.Alloc(nf * oc)
		l.W.Gemm(ga, nf, k, ya)
		for gi, n := range scratch.full {
			copy(out.Data[n*oc:(n+1)*oc], ya[gi*oc:(gi+1)*oc])
		}
	}

	nn.LeakyInPlace(out.Data, l.Alpha)
}
