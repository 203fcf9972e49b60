package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"neo/internal/cluster/proto"
	"neo/pkg/neo"
)

// The /optimize path as it was before a hit became a lookup and a write —
// encoding/json decoding, SplitN, encoding/json values, Validate,
// OptimizeCached, WriteJSON of the whole response — kept as the reference
// the served path must match: the same status for every body within the
// strict rule, and on a 200 the same bytes.

func referenceDecode(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, proto.MaxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}

func referenceBuildQuery(sys *neo.System, spec *proto.QuerySpec) (*neo.Query, error) {
	split := func(ref string) (table, column string, err error) {
		parts := strings.SplitN(ref, ".", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return "", "", fmt.Errorf("column reference %q is not of the form table.column", ref)
		}
		return parts[0], parts[1], nil
	}
	joins := make([]neo.JoinPredicate, len(spec.Joins))
	for i, j := range spec.Joins {
		lt, lc, err := split(j.Left)
		if err != nil {
			return nil, fmt.Errorf("joins[%d].left: %w", i, err)
		}
		rt, rc, err := split(j.Right)
		if err != nil {
			return nil, fmt.Errorf("joins[%d].right: %w", i, err)
		}
		joins[i] = neo.JoinPredicate{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
	}
	preds := make([]neo.Predicate, len(spec.Predicates))
	for i, p := range spec.Predicates {
		table, column, err := split(p.Column)
		if err != nil {
			return nil, fmt.Errorf("predicates[%d].column: %w", i, err)
		}
		op, ok := cmpOps[strings.ToLower(p.Op)]
		if !ok {
			return nil, fmt.Errorf("predicates[%d]: unknown op %q", i, p.Op)
		}
		value, err := referenceParseValue(p.Value)
		if err != nil {
			return nil, fmt.Errorf("predicates[%d].value: %w", i, err)
		}
		preds[i] = neo.Predicate{Table: table, Column: column, Op: op, Value: value}
	}
	q := neo.NewQuery(spec.ID, spec.Relations, joins, preds)
	q.ID = q.Signature()
	if err := q.Validate(sys.Catalog); err != nil {
		return nil, err
	}
	return q, nil
}

func referenceParseValue(raw json.RawMessage) (neo.Value, error) {
	if strings.TrimSpace(string(raw)) == "null" {
		return neo.Value{}, fmt.Errorf("value is null; want an integer or a string")
	}
	var i int64
	if err := json.Unmarshal(raw, &i); err == nil {
		return neo.IntValue(i), nil
	}
	var str string
	if err := json.Unmarshal(raw, &str); err == nil {
		return neo.StringValue(str), nil
	}
	return neo.Value{}, fmt.Errorf("value %s is neither an integer nor a string", string(raw))
}

func referenceOptimize(sys *neo.System) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec proto.QuerySpec
		if code, err := referenceDecode(w, r, &spec); err != nil {
			proto.WriteError(w, code, fmt.Errorf("decoding query: %w", err))
			return
		}
		q, err := referenceBuildQuery(sys, &spec)
		if err != nil {
			proto.WriteError(w, http.StatusBadRequest, err)
			return
		}
		p, res, version, err := sys.Neo.OptimizeCached(q)
		if err != nil {
			proto.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		id := spec.ID
		if id == "" {
			id = q.ID
		}
		proto.WriteJSON(w, proto.OptimizeResponse{
			ID:         id,
			Plan:       p.String(),
			SQL:        q.SQL(),
			Score:      res.Score,
			Expansions: res.Expansions,
			NetVersion: version,
		})
	}
}

// shape names the fields of a request object and, for a field holding
// objects (or arrays of them), their shape; raw values have none.
type shape map[string]shape

var (
	specShape     = shape{"id": nil, "relations": nil, "joins": {"left": nil, "right": nil}, "predicates": {"column": nil, "op": nil, "value": nil}}
	feedbackShape = shape{"query": specShape, "latency_ms": nil, "net_version": nil}
)

// duplicateField reports whether an object of the given shape in raw names
// one field twice, keys matched to fields as encoding/json matches them.
func duplicateField(raw []byte, sh shape) bool {
	if sh == nil {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	switch tok, _ := dec.Token(); tok {
	case json.Delim('['):
		for dec.More() {
			var elem json.RawMessage
			if dec.Decode(&elem) != nil || duplicateField(elem, sh) {
				return true
			}
		}
	case json.Delim('{'):
		seen := map[string]bool{}
		for dec.More() {
			key, _ := dec.Token()
			var val json.RawMessage
			if dec.Decode(&val) != nil {
				return true
			}
			for name, inner := range sh {
				if k, _ := key.(string); strings.EqualFold(k, name) {
					if seen[name] || duplicateField(val, inner) {
						return true
					}
					seen[name] = true
				}
			}
		}
	}
	return false
}

// strictReference decodes data with encoding/json under the strict rule:
// unknown fields refused by the Decoder, trailing data and duplicate fields
// by the checks above.
func strictReference(data []byte, v any, sh shape) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return proto.ErrTrailingData
	}
	if duplicateField(data, sh) {
		return proto.ErrDuplicateKey
	}
	return nil
}

// pairedServers returns the served /optimize and the reference over two
// systems restored from one checkpoint: equal weights, versions and empty
// plan caches, so both see every request as a miss or a hit alike.
func pairedServers(t testing.TB) (served, reference http.Handler, queries []*neo.Query) {
	t.Helper()
	a, queries := testSystem(t)
	b, _ := testSystem(t)
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*neo.System{a, b} {
		if err := sys.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(a, Config{})
	t.Cleanup(func() { srv.Close() })
	return srv, referenceOptimize(b), queries
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	return postPath(h, "/optimize", body)
}

func postPath(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// optimizeCorpus is request bodies that reach every branch of the request
// path: the workload's queries as a client sends them, and permuted,
// re-laid-out and re-cased forms of them that share their signatures; ids
// absent or with HTML and non-ASCII; values with quotes and separators;
// LIKE on an int column; and the int/string value pair that shares one
// signature, int form first so the string form arrives after it is cached.
func optimizeCorpus(t testing.TB, queries []*neo.Query) [][]byte {
	var corpus [][]byte
	add := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, data)
	}
	for i, q := range queries {
		spec := specFor(q)
		add(spec)
		indented, err := json.MarshalIndent(spec, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, indented)

		p := spec
		p.ID = []string{"", "<b>&amp;</b> \"x\" ü ☃ \u2028", "plain"}[i%3]
		p.Relations = reversed(spec.Relations)
		p.Joins = nil
		for _, j := range reversed(spec.Joins) {
			p.Joins = append(p.Joins, proto.JoinSpec{Left: j.Right, Right: j.Left})
		}
		p.Predicates = nil
		for _, pr := range reversed(spec.Predicates) {
			switch pr.Op {
			case "LIKE":
				pr.Op = []string{"like", "Like", "LIKE"}[i%3]
			case "=":
				pr.Op = "=="
			case "<>":
				pr.Op = "!="
			}
			p.Predicates = append(p.Predicates, pr)
		}
		add(p)
	}
	title := func(id string, preds ...proto.PredicateSpec) proto.QuerySpec {
		return proto.QuerySpec{ID: id, Relations: []string{"title"}, Predicates: preds}
	}
	pred := func(column, op, value string) proto.PredicateSpec {
		return proto.PredicateSpec{Column: column, Op: op, Value: json.RawMessage(value)}
	}
	add(title("separators", pred("title.kind", "LIKE", `"a\"b|c&d,e"`)))
	add(title("", pred("title.kind", "like", `"tab\there ü"`), pred("title.kind", "=", `"movie"`), pred("title.production_year", ">", "1990")))
	add(title("ops", pred("title.production_year", "!=", "1990"), pred("title.kind", "==", `"movie"`), pred("title.kind", "LiKe", `"MOV"`)))
	add(title("int-like-int", pred("title.production_year", "LIKE", "19")))
	add(title("int-like-string", pred("title.production_year", "LIKE", `"19"`)))
	add(title("kind-int", pred("title.production_year", "=", "1985")))
	add(title("kind-string", pred("title.production_year", "=", `"1985"`)))
	add(title("kind-int-again", pred("title.production_year", "=", "1985")))
	for _, bad := range badSpecs {
		add(bad)
	}
	corpus = append(corpus,
		[]byte(`{"id":"escaped","relations":["t\u0069tle"],"predicates":[{"column":"title\u002eproduction_year","op":"\u003e","value":2000}]}`),
		[]byte(`{"relations":["title"],"predicates":[{"column":"title.production_year","op":"=","value":99999999999999999999}]}`),
		[]byte(`{"relations":["title"],"predicates":[{"column":"title.production_year","op":"=","value":-0}]}`),
		[]byte(`{nope`),
	)
	return corpus
}

func reversed[T any](s []T) []T {
	out := make([]T, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// checkAgainstReference sends body to both handlers and compares them: a
// body that breaks the strict rule must get the served path's 400, any other
// the reference's status and, on a 200, its bytes.
func checkAgainstReference(t *testing.T, served, reference http.Handler, body []byte) (status int) {
	t.Helper()
	got := post(served, body)
	lenient := json.NewDecoder(bytes.NewReader(body)).Decode(new(proto.QuerySpec)) == nil
	if lenient && strictReference(body, new(proto.QuerySpec), specShape) != nil {
		if got.Code != http.StatusBadRequest {
			t.Errorf("%s: a body that breaks the strict rule got %d, want 400", body, got.Code)
		}
		return got.Code
	}
	want := post(reference, body)
	if got.Code != want.Code {
		t.Errorf("%s: status %d (%s), reference %d (%s)", body, got.Code, got.Body, want.Code, want.Body)
	} else if got.Code == http.StatusOK && got.Body.String() != want.Body.String() {
		t.Errorf("%s:\n got %s\nwant %s", body, got.Body, want.Body)
	}
	return got.Code
}

// TestOptimizeMatchesReference: every corpus body gets the reference's
// status and, on a 200, its bytes — on the miss and on the hit.
func TestOptimizeMatchesReference(t *testing.T) {
	served, reference, queries := pairedServers(t)
	codes := map[string]int{}
	for _, body := range optimizeCorpus(t, queries) {
		first := checkAgainstReference(t, served, reference, body)
		if again := checkAgainstReference(t, served, reference, body); again != first {
			t.Errorf("%s: %d on the miss, %d on the hit", body, first, again)
		}
		var spec proto.QuerySpec
		if json.Unmarshal(body, &spec) == nil && spec.ID != "" {
			codes[spec.ID] = first
		}
	}
	// The value-kind pair shares a signature: the string form is refused
	// although the int form's plan is cached.
	for id, want := range map[string]int{"kind-int": 200, "kind-string": 400, "kind-int-again": 200, "int-like-int": 200, "int-like-string": 200} {
		if codes[id] != want {
			t.Errorf("%s: status %d, want %d", id, codes[id], want)
		}
	}
}

// FuzzOptimizeRequest feeds arbitrary bodies to the served /optimize and the
// reference: a body within the strict rule gets the reference's status and,
// on a 200, its bytes; one outside it gets 400. The decoder must agree with
// encoding/json under the rule — both refuse, or both yield equal values —
// for query specs and feedback bodies alike.
func FuzzOptimizeRequest(f *testing.F) {
	served, reference, queries := pairedServers(f)
	for _, body := range optimizeCorpus(f, queries) {
		f.Add(body)
	}
	f.Add([]byte(`{"query":{"relations":["title"]},"latency_ms":5,"net_version":2}`))
	f.Add([]byte(`{"relations":["title"],"Relations":["title"]}`))
	f.Add([]byte(`{"relations":["title"]} this is not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want proto.QuerySpec
		gotErr, wantErr := proto.Unmarshal(body, &got), strictReference(body, &want, specShape)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoder %#v (%v), encoding/json %#v (%v)", body, got, gotErr, want, wantErr)
		}
		var gotFB, wantFB proto.FeedbackRequest
		gotErr, wantErr = proto.Unmarshal(body, &gotFB), strictReference(body, &wantFB, feedbackShape)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(gotFB, wantFB) {
			t.Fatalf("%q: feedback decoder %#v (%v), encoding/json %#v (%v)", body, gotFB, gotErr, wantFB, wantErr)
		}
		checkAgainstReference(t, served, reference, body)
	})
}
