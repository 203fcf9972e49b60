// Flattened forest batches for training. The pointer-chasing per-tree
// Forward in treeconv.go is the reference implementation; the training tape
// (train.go) flattens a whole minibatch of forests — every node of every tree
// of every sample — into contiguous arrays once, then convolves all nodes of
// the batch inside flat loops with no per-node allocations. Structure is
// expressed as child indices, with -1 standing in for the zero-padded
// children the paper attaches to leaves.
package treeconv

import "neo/internal/nn"

// Batch is a forest batch flattened into index form: node i carries the
// Channels-vector Data[i*Channels:(i+1)*Channels], its children are the nodes
// Left[i] and Right[i] (-1 when absent, convolved as all-zero vectors), and
// it belongs to forest Sample[i] of the batch.
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
// value network splices its spatial replication into the flattening pass.
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

func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
