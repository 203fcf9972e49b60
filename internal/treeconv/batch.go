// Batched tree convolution. The pointer-chasing per-tree Forward in
// treeconv.go is the reference implementation; scoring and training flatten a
// whole batch of forests — every node of every tree of every sample — into
// contiguous arrays once, then convolve all nodes of the batch inside flat
// loops with no per-node allocations. Structure is expressed as child
// indices, with -1 standing in for the zero-padded children the paper
// attaches to leaves.
//
// This file holds the containers, generic over the element type, and the
// float64 inference pass; the float64 kernels it shares with training live in
// train.go and the packed float32 pass in f32.go. The float64 convolution
// performs the same floating-point operations in the same order per node as
// Layer.convolve, so batched and per-tree inference produce bit-identical
// results.
package treeconv

import (
	"math"

	"neo/internal/nn"
)

// Batch is a forest batch flattened into index form: node i carries the
// Channels-vector Data[i*Channels:(i+1)*Channels], its children are the nodes
// Left[i] and Right[i] (-1 when absent, convolved as all-zero vectors), and
// it belongs to forest Sample[i] of the batch. The element type is float64 for
// training and exact scoring, float32 for the packed serving kernels (f32.go).
type Batch[T nn.Float] struct {
	Channels int
	N        int // number of nodes
	Samples  int // number of forests
	Data     []T
	Left     []int
	Right    []int
	Sample   []int
}

// Row returns node i's feature vector.
func (b *Batch[T]) Row(i int) []T {
	return b.Data[i*b.Channels : (i+1)*b.Channels]
}

// BatchBuilder flattens forests into a Batch, reusing its buffers across
// calls so a warmed-up builder performs no allocations.
type BatchBuilder[T nn.Float] struct {
	batch Batch[T]
	next  int
}

// Build flattens one forest per sample into a batch of channels-wide node
// rows. Each node's row is produced by fill(sample, node, row), which must
// overwrite every element (rows are recycled, not zeroed); this is where the
// value network splices its spatial replication into the flattening pass —
// and, for float32 batches, the float64→float32 input-encode boundary of the
// scoring pipeline.
func (bb *BatchBuilder[T]) Build(forests [][]*Tree, channels int, fill func(sample int, node *Tree, row []T)) *Batch[T] {
	n := 0
	for _, f := range forests {
		for _, t := range f {
			n += t.NumNodes()
		}
	}
	b := &bb.batch
	b.Channels = channels
	b.N = n
	b.Samples = len(forests)
	b.Data = grow(b.Data, n*channels)
	b.Left = grow(b.Left, n)
	b.Right = grow(b.Right, n)
	b.Sample = grow(b.Sample, n)
	bb.next = 0
	for si, f := range forests {
		for _, t := range f {
			if t != nil {
				bb.addTree(t, si, fill)
			}
		}
	}
	return b
}

// addTree appends t's nodes in pre-order and returns t's node index.
func (bb *BatchBuilder[T]) addTree(t *Tree, sample int, fill func(sample int, node *Tree, row []T)) int {
	b := &bb.batch
	i := bb.next
	bb.next++
	fill(sample, t, b.Row(i))
	b.Sample[i] = sample
	if t.Left != nil {
		b.Left[i] = bb.addTree(t.Left, sample, fill)
	} else {
		b.Left[i] = -1
	}
	if t.Right != nil {
		b.Right[i] = bb.addTree(t.Right, sample, fill)
	} else {
		b.Right[i] = -1
	}
	return i
}

// BatchScratch holds every piece of reusable storage a batched stack forward
// needs: the arena for activation matrices, two batch headers the layers
// ping-pong between, and what each kernel set keeps per batch — the float64
// kernels a shared all-zero row standing in for absent children, the packed
// float32 kernels the leaf/interior node partition. Not safe for concurrent
// use; keep one per goroutine.
type BatchScratch[T nn.Float] struct {
	Arena nn.Arena[T]
	zeros []T
	leaf  []int // node indices with no children
	full  []int // node indices with at least one child
	ping  Batch[T]
	pong  Batch[T]
}

// Reset recycles the scratch for the next forward pass.
func (s *BatchScratch[T]) Reset() { s.Arena.Reset() }

// zeroRow returns an all-zero row of at least dim elements.
func (s *BatchScratch[T]) zeroRow(dim int) []T {
	if len(s.zeros) < dim {
		s.zeros = make([]T, dim) // make zeroes it; never written afterwards
	}
	return s.zeros[:dim]
}

// next sizes the ping-pong header that is not cur as the channels-wide output
// of a layer over cur: same structure (the index slices are shared), Data
// drawn from the arena.
func (s *BatchScratch[T]) next(cur *Batch[T], channels int) *Batch[T] {
	out := &s.ping
	if cur == out {
		out = &s.pong
	}
	*out = *cur
	out.Channels = channels
	out.Data = s.Arena.Alloc(cur.N * channels)
	return out
}

// ForwardBatch runs every layer of the stack over the flattened batch
// (inference only; no tape is recorded): the same pre-activation kernels
// training uses (convBatchPre), each followed by an in-place activation
// pass. The returned batch aliases scratch storage and is valid until the
// next Reset.
func (s *Stack) ForwardBatch(in *Batch[float64], scratch *BatchScratch[float64]) *Batch[float64] {
	zeros := scratch.zeroRow(s.maxInChannels())
	cur := in
	for _, l := range s.Layers {
		out := scratch.next(cur, l.OutChannels)
		l.convBatchPre(cur, out.Data, zeros)
		nn.LeakyInPlace(out.Data, l.Act.Alpha)
		cur = out
	}
	return cur
}

func (s *Stack) maxInChannels() int {
	maxIn := 0
	for _, l := range s.Layers {
		if l.InChannels > maxIn {
			maxIn = l.InChannels
		}
	}
	return maxIn
}

// PoolBatch dynamic-pools every sample of the batch: row s of the result is
// the elementwise maximum over all node vectors belonging to sample s,
// matching DynamicPool applied per tree followed by a cross-tree maximum.
// Samples with no nodes (empty forests) pool to all-zero rows. The result
// holds samples×b.Channels values drawn from the arena.
func PoolBatch[T nn.Float](b *Batch[T], a *nn.Arena[T]) []T {
	dim := b.Channels
	pooled := a.Alloc(b.Samples * dim)
	negInf := T(math.Inf(-1))
	for i := range pooled {
		pooled[i] = negInf
	}
	for n := 0; n < b.N; n++ {
		row := pooled[b.Sample[n]*dim : (b.Sample[n]+1)*dim]
		for i, v := range b.Row(n) {
			if v > row[i] {
				row[i] = v
			}
		}
	}
	for i := range pooled {
		if pooled[i] == negInf {
			pooled[i] = 0
		}
	}
	return pooled
}

func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
