// Package reftest is the per-sample float64 reference of Neo's value
// network (Section 4, Figure 5): linked feature trees, the per-sample
// Linear, leaky ReLU, layer norm and MLP passes, the per-tree convolution,
// dynamic pooling and the whole network's forward and backward pass, one
// sample at a time, allocating freely, written as the paper states them.
//
// The product trains with a batched tape and scores with float32 panels;
// the parity tests of nn, treeconv, valuenet and core hold both to this
// package. Its layers hold the weight and gradient slices of the product's
// parameters (Param), aliased rather than copied, so a reference backward
// pass accumulates into the product's gradients. Only test files import
// reftest; the repository's lint test enforces that.
package reftest

import "math/rand"

// Tree is a plan's feature tree as the reference reads it: one vector per
// node, a node has two children or none, and a leaf's nil children convolve
// as all-zero vectors, as the paper attaches zero-filled children to leaves.
type Tree struct {
	Data        []float64
	Left, Right *Tree
}

// Leaf returns a childless node.
func Leaf(data []float64) *Tree { return &Tree{Data: data} }

// Join returns a node over two children.
func Join(data []float64, left, right *Tree) *Tree {
	return &Tree{Data: data, Left: left, Right: right}
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int {
	if t == nil {
		return 0
	}
	return 1 + t.Left.NumNodes() + t.Right.NumNodes()
}

// Walk visits every node in pre-order.
func (t *Tree) Walk(fn func(*Tree)) {
	if t == nil {
		return
	}
	fn(t)
	t.Left.Walk(fn)
	t.Right.Walk(fn)
}

// RandomTree builds a random tree with n ≥ 1 leaves (2n−1 nodes) of
// dim-wide standard normal vectors: a node draws its vector, then a join
// draws how many of its leaves go left.
func RandomTree(rng *rand.Rand, n, dim int) *Tree {
	data := make([]float64, dim)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if n == 1 {
		return Leaf(data)
	}
	nl := 1 + rng.Intn(n-1)
	return Join(data, RandomTree(rng, nl, dim), RandomTree(rng, n-nl, dim))
}

// Map returns a tree shaped like t whose node vectors are fn(node).
func (t *Tree) Map(fn func(*Tree) []float64) *Tree {
	if t == nil {
		return nil
	}
	return Join(fn(t), t.Left.Map(fn), t.Right.Map(fn))
}

// zip returns a tree shaped like a and b whose node vectors are fn of
// theirs.
func zip(a, b *Tree, fn func(av, bv []float64) []float64) *Tree {
	if a == nil || b == nil {
		return nil
	}
	return Join(fn(a.Data, b.Data), zip(a.Left, b.Left, fn), zip(a.Right, b.Right, fn))
}

// Nodes is an id space of feature-tree nodes: id's row and its children's
// ids, both -1 for a leaf. It has the method set of treeconv.Nodes, so
// either converts to the other.
type Nodes interface {
	Node(id int32) (row []float64, left, right int32)
}

// IDs numbers trees by pointer, children first: the id space samples and
// scorers read them through. One tree is one id wherever it occurs, as one
// plan node is in a plan encoder, so forests that share a tree share its
// ids. The zero value is empty.
type IDs struct {
	rows        [][]float64
	left, right []int32
	ids         map[*Tree]int32
}

// Node implements Nodes.
func (s *IDs) Node(id int32) (row []float64, left, right int32) {
	return s.rows[id], s.left[id], s.right[id]
}

// ID returns t's id, numbering t and whatever below it is new.
func (s *IDs) ID(t *Tree) int32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	l, r := int32(-1), int32(-1)
	if t.Left != nil {
		l, r = s.ID(t.Left), s.ID(t.Right)
	}
	if s.ids == nil {
		s.ids = make(map[*Tree]int32)
	}
	id := int32(len(s.rows))
	s.rows, s.left, s.right = append(s.rows, t.Data), append(s.left, l), append(s.right, r)
	s.ids[t] = id
	return id
}

// Roots returns the ids of forest's trees.
func (s *IDs) Roots(forest []*Tree) []int32 {
	out := make([]int32, len(forest))
	for i, t := range forest {
		out[i] = s.ID(t)
	}
	return out
}

// Forests returns the root ids of every forest.
func (s *IDs) Forests(forests [][]*Tree) [][]int32 {
	out := make([][]int32, len(forests))
	for i, f := range forests {
		out[i] = s.Roots(f)
	}
	return out
}

// Trees rebuilds the forest roots names in nodes as linked trees, a fresh
// copy of a subtree at every occurrence.
func Trees(nodes Nodes, roots []int32) []*Tree {
	var tree func(id int32) *Tree
	tree = func(id int32) *Tree {
		row, l, r := nodes.Node(id)
		if l < 0 {
			return Leaf(row)
		}
		return Join(row, tree(l), tree(r))
	}
	out := make([]*Tree, len(roots))
	for i, id := range roots {
		out[i] = tree(id)
	}
	return out
}
