package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"neo/internal/cluster/proto"
)

// stubBackend fakes a replica's /optimize and /feedback for router tests,
// tagging every reply with its own name so tests can see where a request
// landed.
type stubBackend struct {
	name string
	mu   sync.Mutex
	hits int
	srv  *httptest.Server
}

func newStubBackend(name string) *stubBackend {
	sb := &stubBackend{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		sb.hits++
		sb.mu.Unlock()
		_ = json.NewEncoder(w).Encode(proto.OptimizeResponse{ID: sb.name, Plan: "plan-" + sb.name})
	})
	mux.HandleFunc("POST /feedback", func(w http.ResponseWriter, r *http.Request) {
		var req proto.FeedbackRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if req.NetVersion == 999 {
			http.Error(w, `{"error":"stale feedback"}`, http.StatusConflict)
			return
		}
		_ = json.NewEncoder(w).Encode(proto.FeedbackResponse{Experience: 1, Queued: true})
	})
	sb.srv = httptest.NewServer(mux)
	return sb
}

func (sb *stubBackend) count() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.hits
}

// TestRouterShardsDeterministically pins the sharding contract: one query
// structure always lands on the same replica, so the fleet's plan caches
// partition the workload.
func TestRouterShardsDeterministically(t *testing.T) {
	a, b, c := newStubBackend("a"), newStubBackend("b"), newStubBackend("c")
	defer a.srv.Close()
	defer b.srv.Close()
	defer c.srv.Close()
	rt, err := NewRouter([]string{a.srv.URL, b.srv.URL, c.srv.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt)
	defer router.Close()

	spec := proto.QuerySpec{Relations: []string{"title", "movie_keyword"},
		Joins: []proto.JoinSpec{{Left: "title.id", Right: "movie_keyword.movie_id"}}}
	var first proto.OptimizeResponse
	if code := postJSON(t, router.URL+"/optimize", spec, &first); code != http.StatusOK {
		t.Fatalf("optimize: status %d", code)
	}
	for i := 0; i < 5; i++ {
		var resp proto.OptimizeResponse
		if code := postJSON(t, router.URL+"/optimize", spec, &resp); code != http.StatusOK {
			t.Fatalf("optimize %d: status %d", i, code)
		}
		if resp.ID != first.ID {
			t.Fatalf("same query moved replicas: %q then %q", first.ID, resp.ID)
		}
	}
	if got := a.count() + b.count() + c.count(); got != 6 {
		t.Fatalf("%d backend hits for 6 requests", got)
	}
	// A structurally different query is free to land elsewhere; with enough
	// distinct queries every replica sees traffic.
	names := map[string]bool{}
	for i := 0; i < 32; i++ {
		s := proto.QuerySpec{Relations: []string{"title"},
			Predicates: []proto.PredicateSpec{{Column: "title.production_year", Op: ">=", Value: json.RawMessage(itoa(1900 + i))}}}
		var resp proto.OptimizeResponse
		if code := postJSON(t, router.URL+"/optimize", s, &resp); code != http.StatusOK {
			t.Fatalf("optimize: status %d", code)
		}
		names[resp.ID] = true
	}
	if len(names) != 3 {
		t.Fatalf("32 distinct queries reached only %d of 3 replicas", len(names))
	}
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

// TestRouterFailsOverAndRelays pins the failure policy: a dead owner fails
// over in ring order (the request succeeds elsewhere), while a replica's 4xx
// answer is relayed verbatim — every replica would say the same.
func TestRouterFailsOverAndRelays(t *testing.T) {
	a, b := newStubBackend("a"), newStubBackend("b")
	defer b.srv.Close()
	rt, err := NewRouter([]string{a.srv.URL, b.srv.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt)
	defer router.Close()

	spec := proto.QuerySpec{Relations: []string{"title"}}
	a.srv.Close() // kill one replica; whichever owns the key, the other answers
	var resp proto.OptimizeResponse
	if code := postJSON(t, router.URL+"/optimize", spec, &resp); code != http.StatusOK {
		t.Fatalf("optimize with one dead replica: status %d", code)
	}
	if resp.ID != "b" {
		t.Fatalf("reply came from %q, want the surviving replica", resp.ID)
	}

	// 409 from the replica is the client's answer, not a failover trigger.
	fb := proto.FeedbackRequest{Query: spec, LatencyMS: 5, NetVersion: 999}
	if code := postJSON(t, router.URL+"/feedback", fb, nil); code != http.StatusConflict {
		t.Fatalf("stale feedback through router: status %d, want 409", code)
	}

	// Malformed JSON is rejected at the router, reaching no replica.
	resp2, err := http.Post(router.URL+"/optimize", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp2.StatusCode)
	}
}

// TestRouterRefusesNonStrictBodies: the router decodes by the replicas' own
// strict rule, so a body with trailing data, an unknown field or a field
// given twice is a 400 at the router and reaches no replica.
func TestRouterRefusesNonStrictBodies(t *testing.T) {
	a := newStubBackend("a")
	defer a.srv.Close()
	rt, err := NewRouter([]string{a.srv.URL}, fastClient())
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt)
	defer router.Close()
	for _, tc := range []struct{ path, body string }{
		{"/optimize", `{"relations":["title"]} this is not json`},
		{"/optimize", `{"relations":["title"],"predicate":[]}`},
		{"/optimize", `{"relations":["title"],"relations":["keyword"]}`},
		{"/feedback", `{"query":{"relations":["title"]},"latency_ms":5,"latency":5}`},
		{"/feedback", `{"query":{"relations":["title"],"id":"a","id":"b"},"latency_ms":5}`},
	} {
		resp, err := http.Post(router.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	if n := a.count(); n != 0 {
		t.Errorf("%d refused bodies reached the replica", n)
	}
}
