// The subtree table: the one place the training tape's shards (train.go)
// index the forests of a minibatch. A sample names its forest as root ids in
// an id space (Nodes) — an experience entry's plan encoder, whose
// construction states share subtrees — and tree convolution and dynamic
// pooling only look down: a subtree's activations and its pooled maximum
// depend on its own nodes and on the query embedding spatial replication
// appends to their rows, nothing else. So a subtree is convolved once per
// (id space, id, query group), wherever it occurs. (A search's scorer reads
// the ids of the search's plan-node table directly; see valuenet.Scorer.)
package treeconv

// Nodes is an id space of plan subtrees: every subtree has a dense
// non-negative id, and Node returns subtree id's plan vector and its
// children's ids — both ids for a join, both −1 for a leaf. An id names the
// same subtree for as long as the id space lives, and the rows Node returns
// must not be modified. A plan encoder (feature.PlanEncoder) is one.
type Nodes interface {
	Node(id int32) (row []float64, left, right int32)
}

// Subtrees interns subtrees keyed on (id space, id, query group), a group
// being a small non-negative index. Entry e is a subtree whose root row is
// Row[e], under group Group[e]; its children are the entries Left[e] and
// Right[e], both −1 for a leaf, whose children convolve as all-zero vectors.
// Entries are numbered children before parents. Pre lists every entry in
// the pre-order Add first met it, which for forests that share nothing is
// the node order of walking them one after another. The zero value is an
// empty table.
type Subtrees struct {
	Row         [][]float64
	Group       []int32
	Left, Right []int32
	Pre         []int32
	index       map[subtree]int32
}

// subtree is an entry's key.
type subtree struct {
	nodes     Nodes
	id, group int32
}

// Len returns the number of entries.
func (s *Subtrees) Len() int { return len(s.Row) }

// Reset empties the table, keeping its storage.
func (s *Subtrees) Reset() {
	s.Row, s.Group, s.Left, s.Right, s.Pre = s.Row[:0], s.Group[:0], s.Left[:0], s.Right[:0], s.Pre[:0]
	clear(s.index)
}

// Add interns subtree id of nodes and every subtree below it under group
// and returns its entry.
func (s *Subtrees) Add(nodes Nodes, id, group int32) int32 {
	key := subtree{nodes, id, group}
	if e, ok := s.index[key]; ok {
		return e
	}
	if s.index == nil {
		s.index = make(map[subtree]int32)
	}
	// The subtree's place in the pre-order is taken now; its entry number is
	// known only once its children have theirs.
	pre := len(s.Pre)
	s.Pre = append(s.Pre, -1)
	row, l, r := nodes.Node(id)
	left, right := int32(-1), int32(-1)
	if l >= 0 {
		left, right = s.Add(nodes, l, group), s.Add(nodes, r, group)
	}
	e := int32(len(s.Row))
	s.Row = append(s.Row, row)
	s.Group = append(s.Group, group)
	s.Left = append(s.Left, left)
	s.Right = append(s.Right, right)
	s.Pre[pre] = e
	s.index[key] = e
	return e
}
