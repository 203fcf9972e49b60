// Package proto defines the wire protocol of the distributed serving tier:
// the JSON types exchanged between clients, the router, neo-serve replicas
// and the neo-trainer daemon, the canonical routing key that shards queries
// across replicas, and a small retrying HTTP client every replica↔trainer
// RPC goes through.
//
// The package sits at the bottom of the cluster dependency DAG — it imports
// nothing above the standard library — so internal/serve, internal/cluster
// and pkg/neo can all share one set of wire types without import cycles.
// Binary payloads (network snapshots, experience batches) use the NEOCKPT1
// checkpoint container (internal/checkpoint, documented in
// internal/checkpoint/FORMAT.md) rather than JSON; this package only carries
// the JSON control plane around them.
package proto

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// HeaderNetVersion is the HTTP header carrying a snapshot's value-network
// version on trainer /snapshot responses.
const HeaderNetVersion = "X-Neo-Net-Version"

// MaxRequestBytes bounds every JSON request body the router, the replicas and
// the trainer accept; query specs and control messages are a few KiB.
const MaxRequestBytes = 1 << 20

// MaxExperienceBytes bounds a POST /experience body (one NEOCKPT1 experience
// container; 413 past it). A forwarded container carries at most 64
// entries, under 1 KiB each (a four-join query with its plan encodes to
// about 600 bytes), so 8 MiB leaves room for batches a hundred times that.
const MaxExperienceBytes = 8 << 20

// WriteJSON answers 200 with v as the JSON body, or 500 with the usual error
// body when v does not encode (a NaN or ±Inf score: encoding/json has no
// spelling for them). The body is encoded before anything is written, so a
// failure cannot leave the client an empty 200.
func WriteJSON(w http.ResponseWriter, v any) {
	buf := bytes.NewBuffer(make([]byte, 0, 512))
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes()) // the client hung up; nobody is left to tell
}

// WriteError answers code with the JSON error body every daemon returns on
// non-2xx statuses (see Error).
func WriteError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(Error{Message: err.Error()})
}

// QuerySpec is the JSON representation of a query.
type QuerySpec struct {
	// ID labels the query in responses. Internally queries are always keyed
	// by their structural signature, so reusing an ID across different query
	// structures is harmless.
	ID string `json:"id,omitempty"`
	// Relations lists the base tables.
	Relations []string `json:"relations"`
	// Joins are equi-join predicates, each side a "table.column" reference.
	Joins []JoinSpec `json:"joins,omitempty"`
	// Predicates are single-table filters.
	Predicates []PredicateSpec `json:"predicates,omitempty"`
}

// JoinSpec is one equi-join predicate.
type JoinSpec struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

// PredicateSpec is one single-table filter. Value is a JSON number (integer
// column) or string (string column).
type PredicateSpec struct {
	Column string          `json:"column"`
	Op     string          `json:"op"`
	Value  json.RawMessage `json:"value"`
}

// SpecKey returns the canonical routing key of a query spec: a string that
// is identical for structurally identical queries regardless of the ID,
// relation order, join order, join side order or predicate order the client
// happened to use. The router and pkg/neo.Client hash this key onto the
// consistent-hash ring, so one query structure always lands on the same
// replica — which is what shards the fleet's plan caches without any shared
// state. The key is computed without catalog access (a thin router never
// opens a database), so it canonicalises syntax only; two specs that differ
// syntactically but validate to the same internal query would route to
// different replicas, costing a duplicate cache entry, never a wrong plan.
func SpecKey(q *QuerySpec) string {
	rels := append([]string(nil), q.Relations...)
	sort.Strings(rels)
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		l, r := j.Left, j.Right
		if r < l {
			l, r = r, l
		}
		joins[i] = l + "=" + r
	}
	sort.Strings(joins)
	preds := make([]string, len(q.Predicates))
	for i, p := range q.Predicates {
		preds[i] = p.Column + " " + strings.ToLower(p.Op) + " " + string(p.Value)
	}
	sort.Strings(preds)
	var b strings.Builder
	b.WriteString("R:")
	b.WriteString(strings.Join(rels, ","))
	b.WriteString("|J:")
	b.WriteString(strings.Join(joins, ";"))
	b.WriteString("|P:")
	b.WriteString(strings.Join(preds, ";"))
	return b.String()
}

// OptimizeResponse is the /optimize reply.
type OptimizeResponse struct {
	ID string `json:"id"`
	// Plan is the chosen plan in the paper's notation.
	Plan string `json:"plan"`
	// SQL is the query rendered back, for logging.
	SQL string `json:"sql"`
	// Score is the plan's estimated cost, in the unit of the route that
	// planned it. A searched plan carries the value network's estimate in
	// the training objective's unit: latency in milliseconds under
	// core.WorkloadCost, latency over the query's baseline under
	// core.RelativeCost. A fast-path plan carries fastpath.Cost, in units of
	// one sequential scan of a base relation, with no statistics. Scores of
	// different routes do not compare.
	Score float64 `json:"score"`
	// Expansions is the number of search expansions spent, or the fast
	// path's ordering steps. A cache hit returns the expansions of the
	// request whose search filled the entry, as it returns that request's
	// plan and score.
	Expansions int `json:"expansions"`
	// NetVersion identifies the network snapshot the plan came from. Echo it
	// in the feedback's net_version so a latency measured for this plan is
	// never attached to a plan from a later network.
	NetVersion uint64 `json:"net_version"`
}

// FeedbackRequest reports the observed latency of a query's plan.
type FeedbackRequest struct {
	Query     QuerySpec `json:"query"`
	LatencyMS float64   `json:"latency_ms"`
	// NetVersion is the net_version the client received from /optimize for
	// the plan it measured. When set, feedback whose plan has since been
	// superseded by a snapshot publication is rejected with 409 Conflict
	// instead of mislabeling the old plan's latency as the new plan's. Omit
	// (zero) for best-effort attachment to the currently served plan.
	NetVersion uint64 `json:"net_version,omitempty"`
}

// FeedbackResponse is the /feedback reply.
type FeedbackResponse struct {
	// Experience is the experience-pool size after the addition. On a
	// replica it is the local forwarding-queue depth instead — replicas hold
	// no pool of their own.
	Experience int `json:"experience"`
	// RetrainTriggered reports whether this feedback started a background
	// retraining round (always false on replicas, which never train).
	RetrainTriggered bool `json:"retrain_triggered"`
	// Queued reports that the feedback was accepted into a replica's
	// forwarding queue rather than applied to a local experience pool.
	Queued bool `json:"queued,omitempty"`
}

// ExperienceResponse is the trainer's POST /experience reply.
type ExperienceResponse struct {
	// Accepted is the number of entries ingested from this batch.
	Accepted int `json:"accepted"`
	// Experience is the trainer's experience-pool size after ingestion.
	Experience int `json:"experience"`
	// RetrainTriggered reports whether this batch started a background
	// retraining round.
	RetrainTriggered bool `json:"retrain_triggered"`
	// NetVersion is the trainer's latest published snapshot version.
	NetVersion uint64 `json:"net_version"`
}

// SnapshotRequest asks a replica to load a published snapshot from its
// trainer (POST /admin/snapshot).
type SnapshotRequest struct {
	// Version selects the published snapshot; zero means the trainer's
	// latest.
	Version uint64 `json:"version"`
}

// SnapshotResponse reports the snapshot a replica is serving from after an
// /admin/snapshot load.
type SnapshotResponse struct {
	NetVersion uint64 `json:"net_version"`
}

// QualityStats is a replica's plan-quality window, the signal the rollout
// coordinator compares during a canary. The window accumulates the observed
// feedback latencies since the last snapshot load; loading a snapshot
// archives the running window into the Prev fields and starts a fresh one,
// so canary quality (new weights) and baseline quality (old weights) are
// measured on the same replica and traffic mix.
type QualityStats struct {
	WindowFeedbacks     uint64  `json:"window_feedbacks"`
	WindowMeanLatencyMS float64 `json:"window_mean_latency_ms"`
	PrevWindowFeedbacks uint64  `json:"prev_window_feedbacks"`
	PrevWindowMeanMS    float64 `json:"prev_window_mean_latency_ms"`
}

// ClusterStats is the "cluster" section of a replica's /stats.
type ClusterStats struct {
	// Role is "replica" (standalone daemons omit the section).
	Role string `json:"role"`
	// Trainer is the configured trainer base URL.
	Trainer string `json:"trainer"`
	// SnapshotVersion is the published snapshot version the replica serves
	// from (equal to the top-level net_version).
	SnapshotVersion uint64 `json:"snapshot_version"`
	// Queued is the current forwarding-queue depth.
	Queued int `json:"queued"`
	// Forwarded counts experience entries delivered to the trainer.
	Forwarded uint64 `json:"forwarded"`
	// Dropped counts entries evicted from a full queue (trainer down for
	// longer than the queue bound absorbs).
	Dropped uint64 `json:"dropped"`
	// ForwardErrors counts failed forwarding attempts (after retries).
	ForwardErrors uint64 `json:"forward_errors"`
	// LastForwardError is the most recent forwarding failure, empty when the
	// last attempt succeeded.
	LastForwardError string `json:"last_forward_error,omitempty"`
	// Quality is the plan-quality window the rollout coordinator reads.
	Quality QualityStats `json:"quality"`
}

// ReplicaStats is the subset of a replica's /stats the cluster control plane
// (coordinator, router) decodes. serve.Stats embeds it, so the replica writes
// these fields under the same definition; the rest of its reply is ignored
// here.
type ReplicaStats struct {
	NetVersion uint64 `json:"net_version"`
	Optimizes  uint64 `json:"optimizes"`
	Feedbacks  uint64 `json:"feedbacks"`
	// Cluster is the replica-mode section — forwarding queue, trainer link
	// health, plan-quality window. Omitted (nil) in standalone mode.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// RolloutStatus is the "rollout" section of the trainer's /stats.
type RolloutStatus struct {
	// Phase is "idle", "canary" or "promote".
	Phase string `json:"phase"`
	// Version is the snapshot version currently being rolled out (canary or
	// promote phase), zero when idle.
	Version uint64 `json:"version,omitempty"`
	// Canary is the replica carrying the canary, empty when idle.
	Canary string `json:"canary,omitempty"`
	// Promoted is the last version promoted fleet-wide (zero before the
	// first promotion).
	Promoted uint64 `json:"promoted"`
	// Promotions and Rollbacks count completed rollout decisions.
	Promotions uint64 `json:"promotions"`
	Rollbacks  uint64 `json:"rollbacks"`
	// BadVersions lists versions rolled back and barred from re-canarying.
	BadVersions []uint64 `json:"bad_versions,omitempty"`
}

// TrainerStats is the trainer's /stats reply.
type TrainerStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// NetVersion is the latest *published* snapshot version (what GET
	// /snapshot serves); Training reports whether a round is in flight that
	// will publish a newer one.
	NetVersion uint64 `json:"net_version"`
	// Versions lists the published snapshot versions still available for
	// download: the four newest, plus the version being rolled out and the
	// rollback target.
	Versions []uint64 `json:"versions"`
	// Experience is the trainer's experience-pool size.
	Experience int `json:"experience"`
	// Batches counts POST /experience batches accepted; Accepted the entries
	// they carried.
	Batches  uint64 `json:"batches"`
	Accepted uint64 `json:"accepted"`
	// Retrains counts completed retraining rounds; Training reports one in
	// flight.
	Retrains      uint64         `json:"retrains"`
	Training      bool           `json:"training"`
	LastTrainLoss float64        `json:"last_train_loss"`
	Checkpoints   uint64         `json:"checkpoints"`
	Rollout       *RolloutStatus `json:"rollout,omitempty"`
}

// Error is the JSON error body every daemon returns on non-2xx statuses.
type Error struct {
	Message string `json:"error"`
}

// StatusError reports a non-2xx HTTP response whose body could be read.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("http status %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// Retryable reports whether an RPC error is worth retrying: network errors
// and 5xx statuses are (the peer may be restarting); 4xx statuses are not
// (the request itself is wrong, or semantically stale — 409).
func Retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return err != nil
}

// Client is a retrying HTTP client: every replica↔trainer (and client→
// replica) RPC in the cluster goes through one, so a transient failure —
// a restarting trainer, a GC pause, a dropped connection — costs a backoff,
// not a lost request. Retries apply only to Retryable errors; 4xx responses
// return immediately. The zero value is usable and picks the defaults.
type Client struct {
	// HTTP is the underlying client (default: a client with Timeout as its
	// per-attempt timeout).
	HTTP *http.Client
	// Attempts is the total number of tries per call (default 3).
	Attempts int
	// Backoff is the delay before the second attempt, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Timeout bounds each individual attempt (default 10s). Ignored when
	// HTTP is set.
	Timeout time.Duration
}

func (c *Client) attempts() int {
	if c.Attempts > 0 {
		return c.Attempts
	}
	return 3
}

func (c *Client) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 50 * time.Millisecond
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

// do runs one attempt cycle: fn is called up to Attempts times with
// exponential backoff between tries, stopping early on success, a
// non-retryable error, or context cancellation.
func (c *Client) do(ctx context.Context, fn func() error) error {
	backoff := c.backoff()
	var err error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				return fmt.Errorf("%w (last error: %v)", ctx.Err(), err)
			}
		}
		if err = fn(); err == nil || !Retryable(err) {
			return err
		}
	}
	return err
}

// PostJSON POSTs in as JSON and decodes a 2xx response into out (out may be
// nil). Non-2xx responses return a *StatusError; 5xx and transport errors
// are retried.
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, func() error {
		return c.roundTrip(ctx, http.MethodPost, url, "application/json", body, decodeJSON(out))
	})
}

// PostFailover POSTs in to path on the first of nodes that answers. nodes is
// a key's ring.Sequence, owner first; a node that fails retryably is passed
// over for the next, and when none is left the last failure is returned
// wrapped. Success and non-retryable errors (4xx — a bad spec, stale
// feedback) end the walk at once: every replica would answer the same.
func (c *Client) PostFailover(ctx context.Context, nodes []string, path string, in, out any) error {
	var lastErr error
	for _, node := range nodes {
		err := c.PostJSON(ctx, node+path, in, out)
		if err == nil || !Retryable(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("no replica reachable: %w", lastErr)
}

// FleetStats GETs /stats from every node: a node that answers has its reply
// in stats, one that does not has its error in failed.
func (c *Client) FleetStats(ctx context.Context, nodes []string) (stats map[string]json.RawMessage, failed map[string]error) {
	stats, failed = make(map[string]json.RawMessage, len(nodes)), make(map[string]error)
	for _, node := range nodes {
		var st json.RawMessage
		if err := c.GetJSON(ctx, node+"/stats", &st); err != nil {
			failed[node] = err
		} else {
			stats[node] = st
		}
	}
	return stats, failed
}

// PostBytes POSTs a binary payload (a NEOCKPT1 container) and decodes a 2xx
// JSON response into out.
func (c *Client) PostBytes(ctx context.Context, url string, payload []byte, out any) error {
	return c.do(ctx, func() error {
		return c.roundTrip(ctx, http.MethodPost, url, "application/octet-stream", payload, decodeJSON(out))
	})
}

// GetJSON GETs url and decodes a 2xx response into out.
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	return c.do(ctx, func() error {
		return c.roundTrip(ctx, http.MethodGet, url, "", nil, decodeJSON(out))
	})
}

// GetBytes GETs url and returns the raw 2xx body (a snapshot container)
// along with the response headers.
func (c *Client) GetBytes(ctx context.Context, url string) ([]byte, http.Header, error) {
	var payload []byte
	var hdr http.Header
	err := c.do(ctx, func() error {
		return c.roundTrip(ctx, http.MethodGet, url, "", nil, func(resp *http.Response) (err error) {
			payload, err = io.ReadAll(resp.Body)
			hdr = resp.Header
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return payload, hdr, nil
}

// roundTrip makes one attempt: it sends the request and hands a 2xx response
// to read; any other status becomes a *StatusError carrying the start of the
// body.
func (c *Client) roundTrip(ctx context.Context, method, url, contentType string, body []byte, read func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &StatusError{Code: resp.StatusCode, Body: string(msg)}
	}
	return read(resp)
}

// decodeJSON reads a response by decoding its JSON body into out, or by
// discarding the body when out is nil.
func decodeJSON(out any) func(*http.Response) error {
	return func(resp *http.Response) error {
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// SplitURLs parses a comma-separated list of base URLs as the -replicas and
// -route flags take it: blanks and trailing slashes trimmed, empty items
// dropped.
func SplitURLs(list string) []string {
	var out []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// Hash64 hashes a routing key onto the 64-bit ring space: FNV-1a followed by
// a murmur-style finalizer. The finalizer matters — raw FNV-1a of short,
// similar keys (query specs differing only in a literal) varies mostly in
// its low bits, and ring placement is ordered by the high bits, so without
// mixing the whole fleet's traffic lands in one narrow arc of the ring. The
// ring package uses the same function for its node points.
func Hash64(key string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	return s
}
