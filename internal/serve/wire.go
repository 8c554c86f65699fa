package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// Request is one decoded /predict or /adapt body. X, Xs and Label hold what
// encoding/json would have decoded into the endpoint's wire struct; on the
// fast path the slices alias the request's pooled buffers, so they are valid
// only until Release.
type Request struct {
	X     []float64
	Xs    [][]float64
	Label int

	body bytes.Buffer
	flat []float64   // every decoded float, rows back to back
	ends []int       // end offset in flat of each xs row
	rows [][]float64 // Xs headers, sub-slices of flat
}

// predictRequest and adaptRequest are the wire structs the fallback decodes
// into; their names appear in encoding/json's field errors.
type predictRequest struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

type adaptRequest struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

// maxPooledBytes caps the buffers a released Request may keep: a rare huge
// body is dropped with its request instead of pinning its memory in the pool.
const maxPooledBytes = 1 << 20

// requests pools decode state. flat and rows start non-nil so that an empty
// array always decodes as an empty slice.
var requests = sync.Pool{New: func() any {
	return &Request{flat: make([]float64, 0, 256), rows: make([][]float64, 0, 16)}
}}

// DecodePredict reads a /predict body ({"x":[…]} or {"xs":[[…],…]}) from r.
func DecodePredict(r io.Reader) (*Request, error) { return decode(r, false) }

// DecodeAdapt reads an /adapt body ({"x":[…],"label":k}) from r.
func DecodeAdapt(r io.Reader) (*Request, error) { return decode(r, true) }

// decode reads the whole body into a pooled request and parses it on the
// fast path. Anything outside the canonical shapes — escaped or case-folded
// keys, unknown or duplicate keys, null, out-of-range numbers, a non-integer
// label, trailing bytes — makes the fast path decline, and the same bytes go
// through encoding/json with DisallowUnknownFields. The fast path never
// rejects a body, so every error (and every odd body's result) is
// encoding/json's.
func decode(r io.Reader, adapt bool) (*Request, error) {
	q := requests.Get().(*Request)
	q.body.Reset()
	if _, err := q.body.ReadFrom(r); err != nil {
		q.Release()
		return nil, err
	}
	if q.parse(adapt) {
		return q, nil
	}
	if err := q.fallback(adapt); err != nil {
		q.Release()
		return nil, err
	}
	return q, nil
}

// Release returns the request's buffers to the pool; the request and every
// slice it handed out must not be used afterwards.
func (q *Request) Release() {
	q.X, q.Xs, q.Label = nil, nil, 0
	if q.body.Cap()+8*cap(q.flat)+8*cap(q.ends)+24*cap(q.rows) > maxPooledBytes {
		return
	}
	requests.Put(q)
}

func (q *Request) fallback(adapt bool) error {
	dec := json.NewDecoder(bytes.NewReader(q.body.Bytes()))
	dec.DisallowUnknownFields()
	if adapt {
		var req adaptRequest
		err := dec.Decode(&req)
		q.X, q.Label = req.X, req.Label
		return err
	}
	var req predictRequest
	err := dec.Decode(&req)
	q.X, q.Xs = req.X, req.Xs
	return err
}

// Keys of the wire objects, one bit each, to catch duplicates.
const (
	keyX = 1 << iota
	keyXs
	keyLabel
)

// parse decodes a canonical body: one object holding each of its endpoint's
// keys at most once, spelled exactly, with arrays of RFC 8259 numbers, an
// integer label, JSON whitespace anywhere and nothing after the object. It
// reports false, leaving X, Xs and Label unset, on anything else.
func (q *Request) parse(adapt bool) bool {
	b := q.body.Bytes()
	flat, ends := q.flat[:0], q.ends[:0]
	var xLo, xHi, xsLo, label, seen int
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			if i >= len(b) || b[i] != '"' {
				return false
			}
			// An escaped key keeps its backslash here, so it matches no
			// name below and the body declines.
			n := bytes.IndexByte(b[i+1:], '"')
			if n < 0 {
				return false
			}
			key := b[i+1 : i+1+n]
			i = skipWS(b, i+2+n)
			if i >= len(b) || b[i] != ':' {
				return false
			}
			i = skipWS(b, i+1)
			bit, ok := 0, false
			switch string(key) {
			case "x":
				bit, xLo = keyX, len(flat)
				flat, i, ok = floats(b, i, flat)
				xHi = len(flat)
			case "xs":
				bit, xsLo = keyXs, len(flat)
				if !adapt {
					flat, ends, i, ok = rows(b, i, flat, ends)
				}
			case "label":
				bit = keyLabel
				if adapt {
					label, i, ok = integer(b, i)
				}
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			i = skipWS(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipWS(b, i+1)
				continue
			}
			if i >= len(b) || b[i] != '}' {
				return false
			}
			i++
			break
		}
	}
	if skipWS(b, i) != len(b) {
		return false
	}
	// Slice flat only now that it has stopped growing. It is never nil (see
	// the pool), so an empty array decodes as an empty slice, as in
	// encoding/json.
	q.flat, q.ends = flat, ends
	if seen&keyX != 0 {
		q.X = flat[xLo:xHi:xHi]
	}
	if seen&keyXs != 0 {
		rs := q.rows[:0]
		lo := xsLo
		for _, hi := range ends {
			rs = append(rs, flat[lo:hi:hi])
			lo = hi
		}
		q.rows, q.Xs = rs, rs
	}
	q.Label = label
	return true
}

// skipWS returns the index of the first non-whitespace byte at or after i.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// floats appends the numbers of the array at b[i] to flat and returns the
// index after its closing bracket.
func floats(b []byte, i int, flat []float64) ([]float64, int, bool) {
	if i >= len(b) || b[i] != '[' {
		return flat, i, false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		return flat, i + 1, true
	}
	for {
		end := number(b, i)
		if end < 0 {
			return flat, i, false
		}
		v, err := strconv.ParseFloat(string(b[i:end]), 64)
		if err != nil {
			return flat, i, false
		}
		flat = append(flat, v)
		i = skipWS(b, end)
		if i >= len(b) {
			return flat, i, false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case ']':
			return flat, i + 1, true
		default:
			return flat, i, false
		}
	}
}

// rows appends each row of the array of arrays at b[i] to flat, and its end
// offset to ends.
func rows(b []byte, i int, flat []float64, ends []int) ([]float64, []int, int, bool) {
	if i >= len(b) || b[i] != '[' {
		return flat, ends, i, false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		return flat, ends, i + 1, true
	}
	for {
		var ok bool
		if flat, i, ok = floats(b, i, flat); !ok {
			return flat, ends, i, false
		}
		ends = append(ends, len(flat))
		i = skipWS(b, i)
		if i >= len(b) {
			return flat, ends, i, false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case ']':
			return flat, ends, i + 1, true
		default:
			return flat, ends, i, false
		}
	}
}

// integer parses the number at b[i] as an int, declining fractions,
// exponents and overflow exactly where encoding/json's int decode fails.
func integer(b []byte, i int) (int, int, bool) {
	end := number(b, i)
	if end < 0 {
		return 0, i, false
	}
	n, err := strconv.Atoi(string(b[i:end]))
	return n, end, err == nil
}

// number returns the end of the RFC 8259 number starting at b[i], or -1:
//
//	-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func number(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return -1
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -1
		}
		i = digits(b, i)
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
