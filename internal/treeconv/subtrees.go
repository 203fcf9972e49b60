// The subtree table: the one place forests become indexed node rows, for the
// scorer (valuenet.Scorer) and the training tape (train.go) alike. Plan
// encoders share subtrees between forests — the candidate plans of one
// search, the construction states of one experience entry — and tree
// convolution and dynamic pooling only look down: a subtree's activations
// and its pooled maximum depend on its own nodes and on the query embedding
// spatial replication appends to their rows, nothing else. So a subtree is
// convolved once per (tree, query group), wherever it occurs.
package treeconv

// Subtrees interns trees keyed on (*Tree, query group), a group being a small
// non-negative index. Entry e is the
// subtree Tree[e] under group Group[e]; its children are the entries Left[e]
// and Right[e] (−1 for an absent child, convolved as all-zero vectors).
// Entries are numbered children before parents. Pre lists every entry in the
// pre-order Add first met it, which for forests that share nothing is the
// node order of walking them one after another. Pointer identity is
// structural identity where plan encoders built the trees, and conservative
// for trees that merely look alike. The zero value is an empty table; trees
// added to it must not be modified.
type Subtrees struct {
	Tree        []*Tree
	Group       []int32
	Left, Right []int32
	Pre         []int32
	index       []map[*Tree]int32 // per group: tree → entry
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

// Add interns the non-nil tree t and every subtree of it under group and
// returns t's entry.
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
		left = s.Add(t.Left, group)
	}
	if t.Right != nil {
		right = s.Add(t.Right, group)
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
