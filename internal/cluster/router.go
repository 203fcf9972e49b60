package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"neo/internal/cluster/proto"
	"neo/internal/cluster/ring"
)

// Router is the thin routing mode of neo-serve: a stateless proxy that
// shards /optimize and /feedback traffic across a replica fleet by
// consistent-hashing the query's canonical routing key (proto.SpecKey). One
// query structure always lands on the same replica, so the fleet's plan
// caches partition the workload instead of each replica re-searching every
// query. A replica that fails retryably is failed over in ring order; the
// query then warms the next replica's cache until its owner returns. The
// router opens no database and holds no state beyond the ring — kill it and
// start another.
//
// Endpoints:
//
//	POST /optimize   -> forwarded to the owning replica
//	POST /feedback   -> forwarded to the owning replica (same key, same replica)
//	GET  /stats      -> {"replicas": {url: replica /stats or {"error": ...}}}
//	GET  /healthz    -> 200 ok
type Router struct {
	ring   *ring.Ring
	client *proto.Client
	mux    *http.ServeMux
}

// NewRouter creates a router over the replica base URLs.
func NewRouter(replicas []string, client proto.Client) (*Router, error) {
	rg, err := ring.New(replicas, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: building ring: %w", err)
	}
	rt := &Router{ring: rg, client: &client, mux: http.NewServeMux()}
	rt.mux.HandleFunc("POST /optimize", rt.handleOptimize)
	rt.mux.HandleFunc("POST /feedback", rt.handleFeedback)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, proto.MaxRequestBytes))
	if err != nil {
		proto.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var spec proto.QuerySpec
	if err := json.Unmarshal(body, &spec); err != nil {
		proto.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding query: %w", err))
		return
	}
	rt.forward(w, r, &spec, body, "/optimize")
}

func (rt *Router) handleFeedback(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, proto.MaxRequestBytes))
	if err != nil {
		proto.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var req proto.FeedbackRequest
	if err := json.Unmarshal(body, &req); err != nil {
		proto.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding feedback: %w", err))
		return
	}
	rt.forward(w, r, &req.Query, body, "/feedback")
}

// forward relays the raw body to the key's owning replica, failing over in
// ring order (proto.Client.PostFailover). A non-retryable reply (4xx) is the
// replica's answer and is relayed verbatim.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, spec *proto.QuerySpec, body []byte, path string) {
	var reply json.RawMessage
	err := rt.client.PostFailover(r.Context(), rt.ring.Sequence(proto.SpecKey(spec)), path, json.RawMessage(body), &reply)
	var se *proto.StatusError
	switch {
	case err == nil:
		proto.WriteJSON(w, reply)
	case errors.As(err, &se) && se.Code < 500:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.Code)
		_, _ = io.WriteString(w, se.Body)
	default:
		proto.WriteError(w, http.StatusBadGateway, err)
	}
}

// handleStats fans out to every replica's /stats and returns the fleet view
// keyed by replica URL; unreachable replicas report an error entry instead
// of failing the whole call.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	out, failed := rt.client.FleetStats(r.Context(), rt.ring.Nodes())
	for node, err := range failed {
		out[node], _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	proto.WriteJSON(w, map[string]any{"replicas": out})
}
