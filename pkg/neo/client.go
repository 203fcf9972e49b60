// Client: the fleet-aware client library of the distributed serving tier.
// It speaks the same wire protocol as the thin router (internal/cluster) but
// runs in the caller's process, so an application embedding it needs no
// extra hop: queries are consistent-hashed onto the replica fleet by their
// canonical structure key, feedback follows the same key to the same
// replica, and retryable failures fail over in ring order.
package neo

import (
	"context"
	"encoding/json"
	"fmt"

	"neo/internal/cluster/proto"
	"neo/internal/cluster/ring"
)

// Re-exported wire types, so client code only imports this package.
type (
	// QuerySpec is the JSON representation of a query sent to the fleet.
	QuerySpec = proto.QuerySpec
	// JoinSpec is one equi-join predicate of a QuerySpec.
	JoinSpec = proto.JoinSpec
	// PredicateSpec is one single-table filter of a QuerySpec.
	PredicateSpec = proto.PredicateSpec
	// OptimizeResponse is a replica's /optimize reply.
	OptimizeResponse = proto.OptimizeResponse
	// FeedbackResponse is a replica's /feedback reply.
	FeedbackResponse = proto.FeedbackResponse
	// ReplicaStats is the cluster-relevant subset of a replica's /stats.
	ReplicaStats = proto.ReplicaStats
)

// ClientConfig tunes a fleet client.
type ClientConfig struct {
	// Replicas are the fleet's base URLs (e.g. "http://r1:8080"). At least
	// one is required.
	Replicas []string
	// RPC carries the retry/timeout/backoff knobs for every call. The zero
	// value picks the proto.Client defaults (3 attempts, 50ms doubling
	// backoff, 10s per-attempt timeout).
	RPC proto.Client
}

// Client shards optimize/feedback traffic across a neo-serve replica fleet.
// One query structure always lands on the same replica — the property that
// partitions the fleet's plan caches — and a replica that fails retryably is
// failed over in consistent-hash ring order. Safe for concurrent use.
type Client struct {
	ring *ring.Ring
	rpc  proto.Client
}

// NewClient creates a fleet client.
func NewClient(cfg ClientConfig) (*Client, error) {
	rg, err := ring.New(cfg.Replicas, 0)
	if err != nil {
		return nil, fmt.Errorf("neo: building replica ring: %w", err)
	}
	return &Client{ring: rg, rpc: cfg.RPC}, nil
}

// Replicas returns the fleet's base URLs.
func (c *Client) Replicas() []string { return c.ring.Nodes() }

// Route returns the replica that owns spec's routing key — the one Optimize
// and Feedback talk to first.
func (c *Client) Route(spec *QuerySpec) string {
	return c.ring.Lookup(proto.SpecKey(spec))
}

// Optimize asks the owning replica for a plan, failing over in ring order
// when a replica is down. Echo the response's NetVersion in the matching
// Feedback call so a latency is never attached to a plan from a different
// snapshot.
func (c *Client) Optimize(ctx context.Context, spec *QuerySpec) (*OptimizeResponse, error) {
	var out OptimizeResponse
	if err := c.post(ctx, spec, "/optimize", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback reports the observed latency of spec's plan to the replica that
// served it (same routing key, same replica). netVersion is the version
// Optimize returned; pass zero for best-effort attachment.
func (c *Client) Feedback(ctx context.Context, spec *QuerySpec, latencyMS float64, netVersion uint64) (*FeedbackResponse, error) {
	req := proto.FeedbackRequest{Query: *spec, LatencyMS: latencyMS, NetVersion: netVersion}
	var out FeedbackResponse
	if err := c.post(ctx, spec, "/feedback", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches every replica's /stats. Unreachable replicas are omitted;
// an empty map with a nil error means the whole fleet is down.
func (c *Client) Stats(ctx context.Context) map[string]*ReplicaStats {
	out := make(map[string]*ReplicaStats)
	replies, _ := c.rpc.FleetStats(ctx, c.ring.Nodes())
	for node, reply := range replies {
		var st ReplicaStats
		if json.Unmarshal(reply, &st) == nil {
			out[node] = &st
		}
	}
	return out
}

// post sends body to path on spec's owning replica, failing over along the
// ring (proto.Client.PostFailover).
func (c *Client) post(ctx context.Context, spec *QuerySpec, path string, body, out any) error {
	return c.rpc.PostFailover(ctx, c.ring.Sequence(proto.SpecKey(spec)), path, body, out)
}
