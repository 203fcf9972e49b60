// Package ring implements the consistent-hash ring that shards queries
// across neo-serve replicas. Each node contributes a fixed number of virtual
// points on a 64-bit ring; a key is served by the first node clockwise from
// its hash. Adding or removing one node therefore moves only ~1/N of the key
// space — which is exactly what keeps the fleet's sharded plan caches warm
// through a replica restart: every surviving replica keeps its shard, and
// only the dead replica's shard re-searches (on its failover successor).
package ring

import (
	"fmt"
	"sort"

	"neo/internal/cluster/proto"
)

// vnodes is the virtual-node count per node. 64 points per node keeps the
// shard-size spread within a few percent for small fleets while the ring
// stays tiny (a 16-replica fleet is 1024 points).
const vnodes = 64

type point struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over a set of node names
// (replica base URLs in the cluster). Safe for concurrent use.
type Ring struct {
	nodes  []string
	points []point
}

// New builds a ring over the given nodes with vnodes virtual points each.
// Node order does not matter: the ring layout depends only on the node
// names, so every router and client built over the same fleet routes
// identically.
func New(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring: no nodes")
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{nodes: append([]string(nil), nodes...)}
	for i, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("ring: duplicate node %q", n)
		}
		seen[n] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash: proto.Hash64(fmt.Sprintf("%s#%d", n, v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Tie-break on node index so the layout is deterministic even in the
		// (astronomically unlikely) event of a point-hash collision.
		return pa.node < pb.node
	})
	return r, nil
}

// Nodes returns the ring's nodes in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// first returns the index into r.points of the first point clockwise from
// the key's hash.
func (r *Ring) first(key string) int {
	h := proto.Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Lookup returns the node owning a key: the first node clockwise from the
// key's hash.
func (r *Ring) Lookup(key string) string {
	return r.nodes[r.points[r.first(key)].node]
}

// Sequence returns every node in the key's failover order: the owner first,
// then each further distinct node in clockwise ring order. Routing layers
// walk this sequence when the owner is unreachable — the key's traffic lands
// on a deterministic successor (warm for that key after the first miss)
// instead of scattering across the fleet.
func (r *Ring) Sequence(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	start := r.first(key)
	for i := 0; len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}
