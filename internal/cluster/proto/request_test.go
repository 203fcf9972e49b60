package proto

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestUnmarshalRefusesWhatTheDecoderLetPass: trailing data, unknown fields
// and a field given twice are 400s for every request type.
func TestUnmarshalRefusesWhatTheDecoderLetPass(t *testing.T) {
	cases := []struct {
		body string
		v    any
		want error
	}{
		{`{"relations":["title"]} this is not json`, new(QuerySpec), ErrTrailingData},
		{`{"relations":["title"]}{}`, new(QuerySpec), ErrTrailingData},
		{`{"relations":["title"],"predicate":[{"column":"title.kind","op":"=","value":"x"}]}`, new(QuerySpec), ErrUnknownField},
		{`{"relations":["title"],"predicates":[{"column":"title.kind","op":"=","value":1,"valeu":2}]}`, new(QuerySpec), ErrUnknownField},
		{`{"relations":["title"],"joins":[{"left":"a.b","rigth":"c.d"}]}`, new(QuerySpec), ErrUnknownField},
		{`{"relations":["title"],"relations":["keyword"]}`, new(QuerySpec), ErrDuplicateKey},
		{`{"id":"a","ID":"b","relations":["title"]}`, new(QuerySpec), ErrDuplicateKey},
		{`{"relations":["title"],"predicates":[{"column":"a.b","column":"c.d","op":"=","value":1}]}`, new(QuerySpec), ErrDuplicateKey},
		{`{"query":{"relations":["title"]},"latency_ms":5} x`, new(FeedbackRequest), ErrTrailingData},
		{`{"query":{"relations":["title"]},"latency":5}`, new(FeedbackRequest), ErrUnknownField},
		{`{"query":{"relations":["title"],"bogus":1},"latency_ms":5}`, new(FeedbackRequest), ErrUnknownField},
		{`{"query":{"relations":["title"]},"latency_ms":5,"latency_ms":6}`, new(FeedbackRequest), ErrDuplicateKey},
		{`{"version":3}]`, new(SnapshotRequest), ErrTrailingData},
		{`{"versoin":3}`, new(SnapshotRequest), ErrUnknownField},
		{`{"version":3,"Version":4}`, new(SnapshotRequest), ErrDuplicateKey},
	}
	for _, tc := range cases {
		if err := Unmarshal([]byte(tc.body), tc.v); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.body, err, tc.want)
		}
	}
}

// TestUnmarshalDecodesAsEncodingJSON: bodies within the rule decode to the
// values encoding/json gives them, whatever their layout — whitespace,
// nulls, escapes, case-folded keys, raw values of every kind.
func TestUnmarshalDecodesAsEncodingJSON(t *testing.T) {
	specs := []string{
		`{"relations":["title"]}`,
		"{\n  \"id\" : \"q\" ,\r\n\t\"relations\" : [ \"title\" , \"keyword\" ] ,\n \"joins\" : [ { \"left\" : \"a.b\" , \"right\" : \"c.d\" } ] }\n",
		`{"id":null,"relations":null,"joins":null,"predicates":null}`,
		`{"relations":[],"joins":[],"predicates":[]}`,
		`{"relations":[null,"x"],"joins":[null,{}],"predicates":[null,{"value":null},{}]}`,
		`{"ID":"upper","Relations":["title"],"PREDICATES":[{"Column":"t.c","oP":"LIKE","VALUE":"x"}]}`,
		`{"relationſ":["long s folds to s"],"\u0069d":"escaped key"}`,
		`{"id":"<b>&amp;</b> \u00fc \u2028 \"q\" \\ \/","relations":["t\u0069tle","\ud800","` + "\xff" + `"]}`,
		`{"relations":["title"],"predicates":[{"column":"title.production_year","op":"=","value":1985},` +
			`{"column":"title.title","op":"like","value":"a\"b|c&d,e"},{"column":"x.y","op":"=","value": -0.5e+3 },` +
			`{"column":"x.y","op":"=","value":[1, {"a" : [true,false,null]}]},{"column":"x.y","op":"=","value":{}}]}`,
		`null`,
		` null `,
	}
	for _, body := range specs {
		var got, want QuerySpec
		if err := Unmarshal([]byte(body), &got); err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("%s: encoding/json: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %#v\nwant %#v", body, got, want)
		}
	}
	feedbacks := []string{
		`{"query":{"relations":["title"]},"latency_ms":12.5,"net_version":3}`,
		`{"query":null,"latency_ms":null,"net_version":null}`,
		`{"latency_ms":-0,"net_version":18446744073709551615,"Query":{"id":"x"}}`,
		`{"latency_ms":1e-7}`,
	}
	for _, body := range feedbacks {
		var got, want FeedbackRequest
		if err := Unmarshal([]byte(body), &got); err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("%s: encoding/json: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) || math.Signbit(got.LatencyMS) != math.Signbit(want.LatencyMS) {
			t.Errorf("%s:\n got %#v\nwant %#v", body, got, want)
		}
	}
}

// TestUnmarshalRejectsWhatEncodingJSONRejects: syntax errors, type
// mismatches, numbers a field cannot hold, and nesting past encoding/json's
// depth limit.
func TestUnmarshalRejectsWhatEncodingJSONRejects(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	bodies := []struct {
		body string
		v    any
	}{
		{``, new(QuerySpec)},
		{`   `, new(QuerySpec)},
		{`{nope`, new(QuerySpec)},
		{`{"relations":["title"]`, new(QuerySpec)},
		{`{"relations":["title",]}`, new(QuerySpec)},
		{`{"relations":"title"}`, new(QuerySpec)},
		{`{"relations":[1]}`, new(QuerySpec)},
		{`{"id":5}`, new(QuerySpec)},
		{`{"joins":[[]]}`, new(QuerySpec)},
		{`{"joins":["a.b"]}`, new(QuerySpec)},
		{`{"predicates":[{"value":01}]}`, new(QuerySpec)},
		{`{"predicates":[{"value":1.}]}`, new(QuerySpec)},
		{`{"predicates":[{"value":[1,]}]}`, new(QuerySpec)},
		{`{"predicates":[{"value":nul}]}`, new(QuerySpec)},
		{`{"predicates":[{"value":"\x"}]}`, new(QuerySpec)},
		{`{"predicates":[{"value":"\u12"}]}`, new(QuerySpec)},
		{"{\"id\":\"tab\there\"}", new(QuerySpec)},
		{"\xef\xbb\xbf{}", new(QuerySpec)},
		{`[]`, new(QuerySpec)},
		{`"x"`, new(QuerySpec)},
		{`{"predicates":[{"value":` + deep(9998) + `}]}`, new(QuerySpec)},
		{`{"latency_ms":"5"}`, new(FeedbackRequest)},
		{`{"latency_ms":1e400}`, new(FeedbackRequest)},
		{`{"net_version":-1}`, new(FeedbackRequest)},
		{`{"net_version":1.5}`, new(FeedbackRequest)},
		{`{"net_version":18446744073709551616}`, new(FeedbackRequest)},
		{`{"version":true}`, new(SnapshotRequest)},
	}
	for _, tc := range bodies {
		if json.Unmarshal([]byte(tc.body), tc.v) == nil {
			t.Fatalf("%.40q: encoding/json accepts it", tc.body)
		}
		if err := Unmarshal([]byte(tc.body), tc.v); err == nil {
			t.Errorf("%.40q: accepted", tc.body)
		}
	}
	// One level less is within both limits.
	body := `{"predicates":[{"value":` + deep(9997) + `}]}`
	var got QuerySpec
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	if err := Unmarshal([]byte(body), &got); err != nil {
		t.Errorf("nesting at the limit: %v", err)
	}
}

// TestDecodeRequestStatuses: 413 past MaxRequestBytes, 400 for a body that
// breaks the rule.
func TestDecodeRequestStatuses(t *testing.T) {
	for body, want := range map[string]int{
		`{"relations":["title"]}`:                   http.StatusOK,
		`{"relations":["title"]} trailing`:          http.StatusBadRequest,
		strings.Repeat(" ", MaxRequestBytes) + `{}`: http.StatusRequestEntityTooLarge,
	} {
		r := httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body))
		var spec QuerySpec
		if code, _ := DecodeRequest(httptest.NewRecorder(), r, &spec); code != want {
			t.Errorf("%.30q: status %d, want %d", body, code, want)
		}
	}
}

// writeJSONBytes is what WriteJSON answers for v.
func writeJSONBytes(v any) (int, string) {
	w := httptest.NewRecorder()
	WriteJSON(w, v)
	return w.Code, w.Body.String()
}

// TestOptimizeAnswerMatchesWriteJSON: an answer rendered once and spliced
// with a request's id and SQL is the reply WriteJSON gives the whole
// OptimizeResponse, byte for byte, and a non-finite score is its 500.
func TestOptimizeAnswerMatchesWriteJSON(t *testing.T) {
	for _, resp := range []OptimizeResponse{
		{ID: "job-1a", Plan: "[(IndexScan(title) ⋈H SeqScan(movie_keyword))]", SQL: "SELECT count(*) FROM title;", Score: 123.456, Expansions: 24, NetVersion: 3},
		{ID: "<b>&amp;</b> ü \u2028\u2029 \x00\x1f\x7f \"\\", Plan: "\xff\xfe", SQL: "t.s = 'a\"b|c&d,e'\n\t\r\b\f", Score: 1e-7, NetVersion: math.MaxUint64},
		{Score: 1e21, Expansions: -1},
		{Score: math.Copysign(0, -1)},
		{Score: 5e-324},
		{Score: math.NaN()},
		{Score: math.Inf(-1)},
	} {
		wantCode, want := writeJSONBytes(resp)
		w := httptest.NewRecorder()
		NewOptimizeAnswer(resp.Plan, resp.Score, resp.Expansions, resp.NetVersion).Write(w, resp.ID, []byte(resp.SQL))
		if w.Code != wantCode || w.Body.String() != want {
			t.Errorf("answer %d %q, WriteJSON %d %q", w.Code, w.Body.String(), wantCode, want)
		}
		if got, want := w.Header().Get("Content-Type"), "application/json"; got != want {
			t.Errorf("Content-Type %q, want %q", got, want)
		}
	}
}

// FuzzAppendJSONString: AppendJSONString encodes every string, valid UTF-8
// or not, exactly as encoding/json does with HTML escaping off.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", "\"\\/", "\x00\x1f\x7f\b\f\n\r\t", "ü⋈\u2028\u2029", "\xff\xc3", "<>&"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSuffix(buf.String(), "\n")
		if got := string(AppendJSONString(nil, s)); got != want {
			t.Fatalf("string %q: %s, encoding/json %s", s, got, want)
		}
		if got := string(AppendJSONString(nil, []byte(s))); got != want {
			t.Fatalf("bytes %q: %s, encoding/json %s", s, got, want)
		}
	})
}
