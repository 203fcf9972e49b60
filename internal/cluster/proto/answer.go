package proto

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"unicode/utf8"
)

// OptimizeAnswer is the part of an /optimize reply that depends only on the
// plan-cache entry answering it — plan text, score, expansions and net
// version — rendered once per entry. Write splices in what depends on the
// request, its id and its sql, so that a reply is the bytes WriteJSON would
// produce for the whole OptimizeResponse.
type OptimizeAnswer struct {
	plan []byte // `,"plan":"…"`
	tail []byte // `,"score":…,"expansions":…,"net_version":…}` and a newline
	err  error  // the encoding failure of a non-finite score
}

// NewOptimizeAnswer renders the entry-dependent fields of an /optimize reply.
func NewOptimizeAnswer(plan string, score float64, expansions int, version uint64) *OptimizeAnswer {
	a := &OptimizeAnswer{plan: AppendJSONString([]byte(`,"plan":`), plan)}
	// The tail fields in OptimizeResponse's order, by encoding/json itself:
	// its float format, and its error for NaN and ±Inf.
	tail, err := json.Marshal(struct {
		Score      float64 `json:"score"`
		Expansions int     `json:"expansions"`
		NetVersion uint64  `json:"net_version"`
	}{score, expansions, version})
	if err != nil {
		a.err = fmt.Errorf("encoding response: %w", err)
		return a
	}
	tail[0] = ','
	a.tail = append(tail, '\n')
	return a
}

// Write answers 200 with the reply for a request with the given id and SQL
// text, or 500 with the usual error body when the answer's score does not
// encode.
func (a *OptimizeAnswer) Write(w http.ResponseWriter, id string, sql []byte) {
	if a.err != nil {
		WriteError(w, http.StatusInternalServerError, a.err)
		return
	}
	bp := replyPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"id":`...)
	b = AppendJSONString(b, id)
	b = append(b, a.plan...)
	b = append(b, `,"sql":`...)
	b = AppendJSONString(b, sql)
	b = append(b, a.tail...)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b) // the client hung up; nobody is left to tell
	if cap(b) <= maxPooledBody {
		*bp = b
		replyPool.Put(bp)
	}
}

// replyPool recycles reply buffers up to maxPooledBody bytes.
var replyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// encodes it with HTML escaping off (WriteJSON's setting): quotes,
// backslashes and control characters escaped, invalid UTF-8 replaced by
// U+FFFD, and U+2028 and U+2029 escaped.
func AppendJSONString[S []byte | string](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
