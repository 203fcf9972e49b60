package proto

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Request bodies follow one strict rule, which the replicas, the trainer
// and the router share because they all decode through Unmarshal: a body is
// exactly one JSON value of the request's type, and a body that breaks the
// rule is answered 400, as is any JSON syntax error. Refused, beyond JSON's
// grammar:
//
//   - trailing data after the value;
//   - an object key that names no field of its type (dropped, a misspelled
//     "predicate" key would plan the unfiltered query);
//   - a key that names a field already given in the same object.
//
// Keys match field names as encoding/json matches them, case-insensitively,
// and a field's value may be null, which leaves it zero. A predicate's
// value is raw JSON: any syntactically valid value passes the decoder, and
// the replica decides what it means.
var (
	ErrTrailingData = errors.New("trailing data after the JSON value")
	ErrUnknownField = errors.New("unknown field")
	ErrDuplicateKey = errors.New("duplicate field")
)

// maxDepth is encoding/json's nesting limit, kept so that both accept the
// same bodies.
const maxDepth = 10000

// DecodeRequest reads r's body, at most MaxRequestBytes of it, and decodes
// it into v by Unmarshal. On failure it also returns the HTTP status to
// answer with: 413 for an oversized body, 400 for anything else.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxPooledBody {
			body.Reset()
			bodyPool.Put(body)
		}
	}()
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, err
	case err != nil:
		return http.StatusBadRequest, err
	}
	if err := Unmarshal(body.Bytes(), v); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// bodyPool recycles request-body buffers up to maxPooledBody bytes; decoded
// requests never alias them.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// Unmarshal decodes a request body into v, a *QuerySpec, *FeedbackRequest
// or *SnapshotRequest, under the strict rule above. It decodes what
// encoding/json would, to equal values, without reflection: every string v
// ends up holding is a substring of one allocation, and every predicate
// value a subslice of another. Strings with escapes or invalid UTF-8 are
// unquoted by encoding/json itself.
func Unmarshal(data []byte, v any) error {
	d := decoder{data: data, arena: make([]byte, 0, len(data))}
	var fx [32]fixup
	d.fixups = fx[:0]
	var err error
	switch v := v.(type) {
	case *QuerySpec:
		if err = d.top(func() error { return d.querySpec(v) }); err == nil {
			d.resolve(v)
		}
	case *FeedbackRequest:
		if err = d.top(func() error { return d.feedback(v) }); err == nil {
			d.resolve(&v.Query)
		}
	case *SnapshotRequest:
		err = d.top(func() error {
			return d.object(snapshotFields, func(int) (err error) {
				v.Version, err = d.uint()
				return err
			})
		})
	default:
		return fmt.Errorf("proto: no request decoder for %T", v)
	}
	return err
}

var (
	querySpecFields = []string{"id", "relations", "joins", "predicates"}
	joinFields      = []string{"left", "right"}
	predicateFields = []string{"column", "op", "value"}
	feedbackFields  = []string{"query", "latency_ms", "net_version"}
	snapshotFields  = []string{"version"}
)

// decoder is one Unmarshal call. Decoded text accumulates in arena, and
// fixups record which field each span belongs to until resolve hands the
// fields their strings, all cut from one conversion of the arena.
type decoder struct {
	data   []byte
	pos    int
	depth  int
	arena  []byte
	fixups []fixup
}

// fixup places arena[lo:hi] into field kind of element i.
type fixup struct {
	kind   fieldKind
	i      int
	lo, hi int
}

type fieldKind uint8

const (
	fixID fieldKind = iota
	fixRelation
	fixJoinLeft
	fixJoinRight
	fixPredColumn
	fixPredOp
	fixPredValue
)

func (d *decoder) resolve(q *QuerySpec) {
	text := string(d.arena)
	for _, f := range d.fixups {
		s := text[f.lo:f.hi]
		switch f.kind {
		case fixID:
			q.ID = s
		case fixRelation:
			q.Relations[f.i] = s
		case fixJoinLeft:
			q.Joins[f.i].Left = s
		case fixJoinRight:
			q.Joins[f.i].Right = s
		case fixPredColumn:
			q.Predicates[f.i].Column = s
		case fixPredOp:
			q.Predicates[f.i].Op = s
		case fixPredValue:
			q.Predicates[f.i].Value = d.arena[f.lo:f.hi:f.hi]
		}
	}
}

// top decodes the body's one value with value and refuses trailing data.
func (d *decoder) top(value func() error) error {
	if err := value(); err != nil {
		return err
	}
	d.ws()
	if d.pos < len(d.data) {
		return fmt.Errorf("%w at offset %d", ErrTrailingData, d.pos)
	}
	return nil
}

func (d *decoder) querySpec(q *QuerySpec) error {
	return d.object(querySpecFields, func(field int) error {
		switch field {
		case 0:
			return d.str(fixID, 0)
		case 1:
			n, err := d.array(func(i int) error { return d.str(fixRelation, i) })
			if n >= 0 {
				q.Relations = make([]string, n)
			}
			return err
		case 2:
			n, err := d.array(func(i int) error {
				return d.object(joinFields, func(field int) error { return d.str(fixJoinLeft+fieldKind(field), i) })
			})
			if n >= 0 {
				q.Joins = make([]JoinSpec, n)
			}
			return err
		default:
			n, err := d.array(func(i int) error {
				return d.object(predicateFields, func(field int) error {
					if field == 2 {
						return d.raw(fixPredValue, i)
					}
					return d.str(fixPredColumn+fieldKind(field), i)
				})
			})
			if n >= 0 {
				q.Predicates = make([]PredicateSpec, n)
			}
			return err
		}
	})
}

func (d *decoder) feedback(req *FeedbackRequest) error {
	return d.object(feedbackFields, func(field int) (err error) {
		switch field {
		case 0:
			return d.querySpec(&req.Query)
		case 1:
			req.LatencyMS, err = d.float()
		default:
			req.NetVersion, err = d.uint()
		}
		return err
	})
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) next() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) syntaxError(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input: %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d: %s", d.data[d.pos], d.pos, what)
}

// typeError reports a value of the wrong type, or a syntax error where no
// value begins.
func (d *decoder) typeError(want string) error {
	if d.pos >= len(d.data) || !strings.ContainsRune(`{["-0123456789tfn`, rune(d.data[d.pos])) {
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", d.pos, want)
}

// null consumes a null literal if one is next.
func (d *decoder) null() (bool, error) {
	if d.next() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.syntaxError("in literal " + lit)
	}
	d.pos += len(lit)
	return nil
}

// push enters a container, enforcing encoding/json's nesting limit.
func (d *decoder) push() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	d.pos++
	return nil
}

// pop leaves a container at its closing bracket.
func (d *decoder) pop() {
	d.pos++
	d.depth--
}

// object decodes an object or null. For each key it calls field with the
// key's index in names, positioned at the value, which field must consume.
// With names nil, any keys pass, and field gets -1.
func (d *decoder) object(names []string, field func(int) error) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.next() != '{' {
		return d.typeError("an object")
	}
	if err := d.push(); err != nil {
		return err
	}
	var seen uint64
	if d.next() == '}' {
		d.pop()
		return nil
	}
	for {
		if d.next() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		i, err := d.key(names)
		if err != nil {
			return err
		}
		if i >= 0 {
			if seen&(1<<i) != 0 {
				return fmt.Errorf("%w %q", ErrDuplicateKey, names[i])
			}
			seen |= 1 << i
		}
		if d.next() != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		if err := field(i); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.pop()
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// key consumes an object key and returns the index of the field it names,
// or -1 with names nil.
func (d *decoder) key(names []string) (int, error) {
	lo, hi, plain, err := d.stringToken()
	if err != nil || names == nil {
		return -1, err
	}
	k := d.data[lo+1 : hi-1]
	if !plain {
		var s string
		if err := json.Unmarshal(d.data[lo:hi], &s); err != nil {
			return 0, err
		}
		k = []byte(s)
	}
	for i, name := range names {
		if keyMatches(k, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownField, k)
}

// keyMatches reports whether key k names the lower-case ASCII field name as
// encoding/json matches keys: case-insensitively, by Unicode simple folding.
func keyMatches(k []byte, name string) bool {
	if len(k) != len(name) {
		return !isASCII(k) && strings.EqualFold(string(k), name)
	}
	for i, c := range k {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return !isASCII(k) && strings.EqualFold(string(k), name)
		}
	}
	return true
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// array decodes an array or null, calling elem for each element. n is the
// element count, or -1 for null or when the array broke off.
func (d *decoder) array(elem func(int) error) (n int, err error) {
	if isNull, err := d.null(); isNull || err != nil {
		return -1, err
	}
	if d.next() != '[' {
		return -1, d.typeError("an array")
	}
	if err := d.push(); err != nil {
		return -1, err
	}
	if d.next() == ']' {
		d.pop()
		return 0, nil
	}
	for {
		if err := elem(n); err != nil {
			return -1, err
		}
		n++
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pop()
			return n, nil
		default:
			return -1, d.syntaxError("after array element")
		}
	}
}

// str decodes a string or null into field kind of element i.
func (d *decoder) str(kind fieldKind, i int) error {
	if isNull, err := d.null(); isNull || err != nil {
		return err
	}
	if d.next() != '"' {
		return d.typeError("a string")
	}
	lo, hi, plain, err := d.stringToken()
	if err != nil {
		return err
	}
	start := len(d.arena)
	if plain {
		d.arena = append(d.arena, d.data[lo+1:hi-1]...)
	} else {
		var s string
		if err := json.Unmarshal(d.data[lo:hi], &s); err != nil {
			return err
		}
		d.arena = append(d.arena, s...)
	}
	d.fixups = append(d.fixups, fixup{kind, i, start, len(d.arena)})
	return nil
}

// raw decodes any value into field kind of element i as its raw JSON text.
func (d *decoder) raw(kind fieldKind, i int) error {
	d.ws()
	lo := d.pos
	if err := d.skip(); err != nil {
		return err
	}
	start := len(d.arena)
	d.arena = append(d.arena, d.data[lo:d.pos]...)
	d.fixups = append(d.fixups, fixup{kind, i, start, len(d.arena)})
	return nil
}

// float decodes a number or null as encoding/json decodes a float64.
func (d *decoder) float() (float64, error) {
	lit, err := d.numberOrNull()
	if lit == nil || err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s does not fit a float64", lit)
	}
	return f, nil
}

// uint decodes a number or null as encoding/json decodes a uint64.
func (d *decoder) uint() (uint64, error) {
	lit, err := d.numberOrNull()
	if lit == nil || err != nil {
		return 0, err
	}
	u, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("number %s is not an unsigned integer", lit)
	}
	return u, nil
}

// numberOrNull returns a number's literal text, or nil for null.
func (d *decoder) numberOrNull() ([]byte, error) {
	if isNull, err := d.null(); isNull || err != nil {
		return nil, err
	}
	if c := d.next(); c != '-' && (c < '0' || c > '9') {
		return nil, d.typeError("a number")
	}
	lo := d.pos
	if err := d.number(); err != nil {
		return nil, err
	}
	return d.data[lo:d.pos], nil
}

// skip consumes any one value, checking its syntax.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(nil, func(int) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, _, _, err := d.stringToken()
		return err
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.syntaxError("looking for beginning of value")
	}
}

// number consumes a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	data, p := d.data, d.pos
	digits := func() bool {
		start := p
		for p < len(data) && data[p] >= '0' && data[p] <= '9' {
			p++
		}
		return p > start
	}
	if p < len(data) && data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case !digits():
		d.pos = p
		return d.syntaxError("in numeric literal")
	}
	if p < len(data) && data[p] == '.' {
		p++
		if !digits() {
			d.pos = p
			return d.syntaxError("after decimal point in numeric literal")
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if !digits() {
			d.pos = p
			return d.syntaxError("in exponent of numeric literal")
		}
	}
	d.pos = p
	return nil
}

// stringToken consumes the string token at d.pos, returning its extent
// quotes included. plain reports that its bytes between the quotes are its
// text: no escapes and valid UTF-8.
func (d *decoder) stringToken() (lo, hi int, plain bool, err error) {
	data := d.data
	lo, plain = d.pos, true
	ascii := true
	for p := lo + 1; p < len(data); p++ {
		switch c := data[p]; {
		case c == '"':
			d.pos = p + 1
			if !ascii && !utf8.Valid(data[lo+1:p]) {
				plain = false
			}
			return lo, d.pos, plain, nil
		case c == '\\':
			plain = false
			p++
			if p >= len(data) {
				break
			}
			switch data[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if p++; p >= len(data) || !isHex(data[p]) {
						d.pos = p
						return 0, 0, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
			default:
				d.pos = p
				return 0, 0, false, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			d.pos = p
			return 0, 0, false, d.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(data)
	return 0, 0, false, d.syntaxError("in string literal")
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
