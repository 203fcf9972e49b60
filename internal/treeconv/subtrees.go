// The subtree table: the one place forests of feature trees become indexed
// node rows — the training tape's shards (train.go), and the forests
// valuenet's PredictBatch is handed. A plan encoder shares subtrees between
// the forests it returns — the construction states of one experience entry
// share them — and tree convolution and dynamic pooling only look down: a
// subtree's activations and its pooled maximum depend on its own nodes and
// on the query embedding spatial replication appends to their rows, nothing
// else. So a subtree is convolved once per (tree, query group), wherever it
// occurs. (A search's scorer reads the ids of the search's plan-node table
// instead; see valuenet.Scorer.)
package treeconv

// Subtrees interns binary trees keyed on (*Tree, query group), a group being
// a small non-negative index. Entry e is the subtree Tree[e] under group
// Group[e]; its children are the entries Left[e] and Right[e], both −1 for a
// leaf, whose children convolve as all-zero vectors. Entries are numbered
// children before parents. Pre lists every entry in the pre-order Add first
// met it, which for forests that share nothing is the node order of walking
// them one after another. Two trees are one entry only if they are one
// pointer. The zero value is an empty table; trees added to it must not be
// modified.
type Subtrees struct {
	Tree        []*Tree
	Group       []int32
	Left, Right []int32
	Pre         []int32
	index       []map[*Tree]int32 // per group: tree → entry
}

// Node returns entry e's row and its children's entries: the table as the id
// space valuenet.Scorer reads.
func (s *Subtrees) Node(e int32) (row []float64, left, right int32) {
	return s.Tree[e].Data, s.Left[e], s.Right[e]
}

// Len returns the number of entries.
func (s *Subtrees) Len() int { return len(s.Tree) }

// Reset empties the table, keeping its storage.
func (s *Subtrees) Reset() {
	s.Tree, s.Group, s.Left, s.Right, s.Pre = s.Tree[:0], s.Group[:0], s.Left[:0], s.Right[:0], s.Pre[:0]
	for _, m := range s.index {
		clear(m)
	}
}

// Add interns the tree t and every subtree of it under group and returns
// t's entry.
func (s *Subtrees) Add(t *Tree, group int32) int32 {
	for int(group) >= len(s.index) {
		s.index = append(s.index, make(map[*Tree]int32))
	}
	if e, ok := s.index[group][t]; ok {
		return e
	}
	// t's place in the pre-order is taken now; its entry number is known only
	// once its children have theirs.
	pre := len(s.Pre)
	s.Pre = append(s.Pre, -1)
	left, right := int32(-1), int32(-1)
	if t.Left != nil {
		left, right = s.Add(t.Left, group), s.Add(t.Right, group)
	}
	e := int32(len(s.Tree))
	s.Tree = append(s.Tree, t)
	s.Group = append(s.Group, group)
	s.Left = append(s.Left, left)
	s.Right = append(s.Right, right)
	s.Pre[pre] = e
	s.index[group][t] = e
	return e
}
