package proto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func spec(id string, rels []string, joins []JoinSpec, preds []PredicateSpec) QuerySpec {
	return QuerySpec{ID: id, Relations: rels, Joins: joins, Predicates: preds}
}

// TestSpecKeyCanonical pins that the routing key ignores IDs and every
// ordering degree of freedom a client has, while distinguishing genuinely
// different queries — the property that makes plan-cache sharding stable.
func TestSpecKeyCanonical(t *testing.T) {
	a := spec("q1", []string{"title", "movie_keyword"},
		[]JoinSpec{{Left: "movie_keyword.movie_id", Right: "title.id"}},
		[]PredicateSpec{
			{Column: "title.production_year", Op: ">=", Value: json.RawMessage(`1990`)},
			{Column: "title.kind", Op: "=", Value: json.RawMessage(`"movie"`)},
		})
	b := spec("something-else", []string{"movie_keyword", "title"},
		[]JoinSpec{{Left: "title.id", Right: "movie_keyword.movie_id"}}, // sides swapped
		[]PredicateSpec{
			{Column: "title.kind", Op: "=", Value: json.RawMessage(`"movie"`)}, // order swapped
			{Column: "title.production_year", Op: ">=", Value: json.RawMessage(`1990`)},
		})
	if SpecKey(&a) != SpecKey(&b) {
		t.Fatalf("structurally identical specs key differently:\n  %s\n  %s", SpecKey(&a), SpecKey(&b))
	}
	c := a
	c.Predicates = []PredicateSpec{
		{Column: "title.production_year", Op: ">=", Value: json.RawMessage(`1991`)},
		{Column: "title.kind", Op: "=", Value: json.RawMessage(`"movie"`)},
	}
	if SpecKey(&a) == SpecKey(&c) {
		t.Fatal("different literals produced the same routing key")
	}
	d := a
	d.Joins = nil
	if SpecKey(&a) == SpecKey(&d) {
		t.Fatal("dropping the join did not change the routing key")
	}
}

// TestClientRetriesTransientFailures pins the retry/backoff contract: 5xx
// and transport errors are retried, the call succeeds once the peer
// recovers, and 4xx responses surface immediately with no retry burned.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "starting up", http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]int{"ok": 1})
	}))
	defer ts.Close()

	c := &Client{Attempts: 4, Backoff: time.Millisecond}
	var out map[string]int
	if err := c.GetJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatalf("call did not survive transient 503s: %v", err)
	}
	if out["ok"] != 1 || calls.Load() != 3 {
		t.Fatalf("out=%v calls=%d", out, calls.Load())
	}

	calls.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"stale"}`, http.StatusConflict)
	}))
	defer ts2.Close()
	err := c.PostJSON(context.Background(), ts2.URL, map[string]int{}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("want StatusError 409, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("409 was retried %d times; must not be", calls.Load())
	}
	if Retryable(err) {
		t.Error("409 reported retryable")
	}
}

// TestClientRoundTrip drives each call shape through one round trip per
// status: a 200 is read the way the call reads it (JSON decoded, or bytes and
// headers returned), a 409 surfaces at once as a *StatusError carrying the
// body, and a 503 is retried until Attempts run out.
func TestClientRoundTrip(t *testing.T) {
	calls := []struct {
		name   string
		method string
		call   func(c *Client, url string) (string, error)
	}{
		{"PostJSON", http.MethodPost, func(c *Client, url string) (string, error) {
			var out struct{ OK int }
			err := c.PostJSON(context.Background(), url, map[string]int{"in": 1}, &out)
			return fmt.Sprint(out.OK), err
		}},
		{"GetJSON", http.MethodGet, func(c *Client, url string) (string, error) {
			var out struct{ OK int }
			err := c.GetJSON(context.Background(), url, &out)
			return fmt.Sprint(out.OK), err
		}},
		{"GetBytes", http.MethodGet, func(c *Client, url string) (string, error) {
			payload, hdr, err := c.GetBytes(context.Background(), url)
			return hdr.Get("X-Version") + " " + string(payload), err
		}},
	}
	statuses := []struct {
		code  int
		body  string
		tries int64
	}{
		{http.StatusOK, `{"OK":1}`, 1},
		{http.StatusConflict, `{"error":"stale"}`, 1},
		{http.StatusServiceUnavailable, "starting up", 3},
	}
	for _, call := range calls {
		for _, st := range statuses {
			var tries atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tries.Add(1)
				if r.Method != call.method {
					t.Errorf("%s: method %s", call.name, r.Method)
				}
				w.Header().Set("X-Version", "7")
				w.WriteHeader(st.code)
				_, _ = io.WriteString(w, st.body)
			}))
			got, err := call.call(&Client{Attempts: 3, Backoff: time.Millisecond}, ts.URL)
			ts.Close()
			if tries.Load() != st.tries {
				t.Errorf("%s %d: %d tries, want %d", call.name, st.code, tries.Load(), st.tries)
			}
			if st.code == http.StatusOK {
				want := "1"
				if call.name == "GetBytes" {
					want = "7 " + st.body
				}
				if err != nil || got != want {
					t.Errorf("%s 200: read %q, %v; want %q", call.name, got, err, want)
				}
				continue
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != st.code || se.Body != st.body {
				t.Errorf("%s %d: error %v, want a StatusError with body %q", call.name, st.code, err, st.body)
			}
		}
	}
}

// TestClientExhaustsRetries pins that a dead peer costs exactly Attempts
// tries and returns the last error instead of hanging.
func TestClientExhaustsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	var calls atomic.Int64
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	ts.Close()
	defer wrapped.Close()

	c := &Client{Attempts: 3, Backoff: time.Millisecond}
	if err := c.GetJSON(context.Background(), wrapped.URL, nil); err == nil {
		t.Fatal("call to a 500-ing peer succeeded")
	}
	if calls.Load() != 3 {
		t.Fatalf("burned %d attempts, want 3", calls.Load())
	}
	// A closed listener (connection refused) is also retried, then surfaced.
	if err := c.GetJSON(context.Background(), ts.URL, nil); err == nil {
		t.Fatal("call to a closed listener succeeded")
	}
}

// TestClientHonoursContext pins that cancellation cuts the backoff wait
// short instead of sleeping it out.
func TestClientHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := &Client{Attempts: 10, Backoff: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.GetJSON(ctx, ts.URL, nil)
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v; the hour-long backoff was slept", time.Since(start))
	}
}

// TestWriteJSONAnswers500WhenEncodingFails: encoding/json has no spelling for
// NaN or ±Inf, and WriteJSON used to drop the encoder's error after the
// header was out — the client got 200 OK and no body. A value that does not
// encode is a 500 with the error body every daemon answers with; one that
// does is the same 200 as before.
func TestWriteJSONAnswers500WhenEncodingFails(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1)} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, OptimizeResponse{ID: "q", Plan: "[T(title)]", Score: score})
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("score %v: status %d, want 500", score, rec.Code)
		}
		var body Error
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Message == "" {
			t.Errorf("score %v: body %q is not the JSON error body (%v)", score, rec.Body.String(), err)
		}
	}

	rec := httptest.NewRecorder()
	WriteJSON(rec, OptimizeResponse{ID: "q", Plan: "[T(title) <&> T(keyword)]", Score: 1.5})
	var got OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || got.Score != 1.5 {
		t.Errorf("status %d, content type %q, body %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "<&>") {
		t.Errorf("body %s escapes HTML; plans are rendered with their operators as written", rec.Body.String())
	}
}
