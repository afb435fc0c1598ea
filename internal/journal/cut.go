package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The cut helpers read one JSON value at the start of b in the layout
// json.Marshal writes for it, and return what follows the value: no
// white space, strings without escapes, numbers without a '+', a leading
// zero or a value out of range. Anything else is !ok, for the caller to
// hand the whole payload to json.Unmarshal, which stays the reference: a
// value a helper returns is the value json.Unmarshal reads.

// AppendString is CutString's inverse: it appends s quoted as encoding/json's
// Encoder quotes it, through json.Marshal when a byte needs an escape.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// AppendFloat is CutFloat's inverse: it appends f as encoding/json formats
// a float64, or is !ok for a NaN or an infinity, which encoding/json refuses.
func AppendFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); dst[n-3] == '-' && dst[n-2] == '0' { // e-07 → e-7
			dst = append(dst[:n-2], dst[n-1])
		}
		return dst, true
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), true
}

// CutUint cuts an unsigned decimal number that fits in bits bits.
func CutUint(b []byte, bits int) (n uint64, rest []byte, ok bool) {
	i := digits(b, 0)
	if i == 0 || (i > 1 && b[0] == '0') {
		return 0, nil, false
	}
	n, err := strconv.ParseUint(string(b[:i]), 10, bits)
	return n, b[i:], err == nil
}

// CutInt cuts a signed decimal number that fits in bits bits: CutUint's
// layout after an optional '-', and not -0.
func CutInt(b []byte, bits int) (n int64, rest []byte, ok bool) {
	abs, neg := bytes.CutPrefix(b, []byte{'-'})
	u, rest, ok := CutUint(abs, 64)
	// u-1 wraps a -0 away, and keeps -(1<<(bits-1)), the least value.
	if !ok || (!neg && u >= 1<<(bits-1)) || (neg && u-1 >= 1<<(bits-1)) {
		return 0, nil, false
	}
	if neg {
		return int64(-u), rest, true
	}
	return int64(u), rest, true
}

// CutFloat cuts a number as JSON's grammar writes one,
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, that strconv.ParseFloat
// reads as a float64 in range. strconv reads more than the grammar
// ("+1", ".5", "1.", "Inf", "0x1p-2"), and none of it is cut.
func CutFloat(b []byte) (f float64, rest []byte, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i == 0 || b[i-1] == '-' {
		return 0, nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return 0, nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		at := i
		if i = digits(b, i); i == at {
			return 0, nil, false
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, b[i:], err == nil
}

// digits returns the end of the run of decimal digits in b from i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// CutString cuts a JSON string written without escapes from b, which
// starts just past its opening quote: s is its bytes up to the closing
// quote and rest what follows that quote. A byte outside printable ASCII
// or a backslash is !ok, so s is exactly the value json.Unmarshal reads.
func CutString(b []byte) (s, rest []byte, ok bool) {
	i := 0
	for i < len(b) && strByte[b[i]] == 0 {
		i++
	}
	if i == len(b) || strByte[b[i]] != 1 {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

// strByte sorts the bytes of a string CutString cuts: 0 one it takes, 1
// the closing quote, 2 one it declines.
var strByte = func() (t [256]byte) {
	for c := range t {
		switch {
		case c == '"':
			t[c] = 1
		case c < ' ' || c > '~' || c == '\\':
			t[c] = 2
		}
	}
	return t
}()

// CutStrings cuts an array of CutString's strings, `[]` or
// `["s",...,"s"]`, into a non-nil slice. No value holds a quote, so they
// are the pieces between `","` of one string: the array costs two
// allocations, not one per value.
func CutStrings(b []byte) (ss []string, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != '[' {
		return nil, nil, false
	}
	if b[1] == ']' {
		return []string{}, b[2:], true
	}
	n, i := 0, 1
	for {
		if i == len(b) || b[i] != '"' {
			return nil, nil, false
		}
		if _, rest, ok = CutString(b[i+1:]); !ok {
			return nil, nil, false
		}
		i, n = len(b)-len(rest)+1, n+1
		if len(rest) == 0 || rest[0] != ',' {
			break
		}
	}
	if i > len(b) || b[i-1] != ']' {
		return nil, nil, false
	}
	body := string(b[2 : i-2]) // inside `["` and `"]`
	ss = make([]string, n)
	for k := range ss[:n-1] {
		end := strings.IndexByte(body, '"')
		ss[k], body = body[:end], body[end+3:]
	}
	ss[n-1] = body
	return ss, b[i:], true
}
