// Package wire holds the primitives of the reflection-free JSON codecs on
// the serving path: an append encoder that writes exactly the bytes
// encoding/json writes, and a strict decoder that reads a subset of JSON
// and declines everything else. The platform's completion round trip and
// the cluster's RPC frames each build their payload codecs from these.
// encoding/json stays the definition of the wire format; a codec built
// here is a faster way to produce and read the same bytes, never a second
// format.
//
// The encoder appends what json.Marshal appends: the caller writes fields
// in declaration order and applies omitempty as tagged; Str quotes
// HTML-safe, and Float uses the ES6 number format. A string that needs
// any escaping is quoted by json.Marshal itself, and a non-finite float —
// an error in encoding/json — sets Bad, so the caller declines and its
// encoding/json fallback reports the error.
//
// The decoder accepts only a strict subset of JSON: any whitespace and
// key order, exact field names, strings of printable ASCII without
// escapes, integers without fraction, exponent or leading zeros that fit
// their field, and no null. On anything else — an escape, non-ASCII,
// null, a key differing in case, an unknown key, an overflow, malformed
// JSON — it declines, and the caller hands the same bytes to
// encoding/json. Whatever it accepts it decodes as encoding/json would,
// duplicate keys, pointer reuse and slice reuse included, so a decline
// can never change what a payload means.
package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// Enc is the append encoder. B holds the output; Bad records a value
// encoding/json rejects, after which B is not valid JSON.
type Enc struct {
	B   []byte
	Bad bool
}

// Raw appends s verbatim: punctuation and quoted keys.
func (e *Enc) Raw(s string) { e.B = append(e.B, s...) }

// Str appends s as a JSON string.
func (e *Enc) Str(s *string) {
	for i := 0; i < len(*s); i++ {
		if c := (*s)[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(*s) // a string always marshals
			e.B = append(e.B, q...)
			return
		}
	}
	e.B = append(e.B, '"')
	e.B = append(e.B, *s...)
	e.B = append(e.B, '"')
}

// Float formats f as encoding/json does: 'f' form, 'e' form outside
// [1e-6, 1e21) with the exponent's leading zero dropped (1e-07 → 1e-7).
func (e *Enc) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.Bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.B = strconv.AppendFloat(e.B, f, format, -1, 64)
	if n := len(e.B); format == 'e' && e.B[n-4] == 'e' && e.B[n-3] == '-' && e.B[n-2] == '0' {
		e.B[n-2] = e.B[n-1]
		e.B = e.B[:n-1]
	}
}

// Int appends *n.
func (e *Enc) Int(n *int) { e.B = strconv.AppendInt(e.B, int64(*n), 10) }

// Int64 appends n.
func (e *Enc) Int64(n int64) { e.B = strconv.AppendInt(e.B, n, 10) }

// Bool appends v.
func (e *Enc) Bool(v bool) { e.B = strconv.AppendBool(e.B, v) }

// EncList encodes a slice, nil as null.
func EncList[T any](e *Enc, s []T, elem func(*Enc, *T)) {
	if s == nil {
		e.Raw("null")
		return
	}
	e.B = append(e.B, '[')
	for i := range s {
		if i > 0 {
			e.B = append(e.B, ',')
		}
		elem(e, &s[i])
	}
	e.B = append(e.B, ']')
}

// Decode decodes all of data into a zero T with dec and stores it in
// *out only if dec accepts and nothing but whitespace follows the value,
// as json.Unmarshal requires. On false *out is untouched. *out must hold
// its zero value, as encoding/json's would for the fallback to match.
func Decode[T any](data []byte, out *T, dec func(*Dec, *T) bool) bool {
	return decode(data, out, dec, true)
}

// DecodeFirst is Decode for the first value in data: whatever follows it
// is ignored, as json.Decoder.Decode ignores the rest of a stream.
func DecodeFirst[T any](data []byte, out *T, dec func(*Dec, *T) bool) bool {
	return decode(data, out, dec, false)
}

func decode[T any](data []byte, out *T, dec func(*Dec, *T) bool, whole bool) bool {
	// The cursor and the value both escape through dec; one allocation
	// holds the two.
	s := &struct {
		d Dec
		v T
	}{d: Dec{b: data}}
	if !dec(&s.d, &s.v) || whole && !s.d.end() {
		return false
	}
	*out = s.v
	return true
}

// Dec is the strict decoder's cursor. Every method skips leading
// whitespace and returns false to decline.
type Dec struct {
	b []byte
	i int
}

func (d *Dec) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next non-space byte.
func (d *Dec) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *Dec) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// span scans a string of printable ASCII without escapes and returns its
// contents, which alias the input.
func (d *Dec) span() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Str decodes a string.
func (d *Dec) Str(p *string) bool {
	s, ok := d.span()
	if ok {
		*p = string(s)
	}
	return ok
}

// Bool decodes true or false.
func (d *Dec) Bool(p *bool) bool {
	d.ws()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p = true
		d.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*p = false
		d.i += 5
	default:
		return false
	}
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (d *Dec) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// number scans a JSON number and reports whether it is an integer (no
// fraction, no exponent).
func (d *Dec) number() (lit []byte, integer, ok bool) {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	if n := d.digits(); n == 0 || n > 1 && d.b[d.i-n] == '0' {
		return nil, false, false
	}
	integer = true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return d.b[start:d.i], integer, true
}

// Float decodes a number into a float64.
func (d *Dec) Float(p *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*p = f
	return true
}

// integer decodes an integer literal that fits in bits.
func (d *Dec) integer(bits int) (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

// Int decodes an integer that fits an int.
func (d *Dec) Int(p *int) bool {
	n, ok := d.integer(strconv.IntSize)
	if ok {
		*p = int(n)
	}
	return ok
}

// Int64 decodes an integer that fits an int64.
func (d *Dec) Int64(p *int64) bool {
	n, ok := d.integer(64)
	if ok {
		*p = n
	}
	return ok
}

// Object decodes an object, handing each key to field, which decodes the
// value or declines.
func (d *Dec) Object(field func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		k, ok := d.span()
		if !ok || !d.next(':') || !field(k) {
			return false
		}
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// Ptr decodes a value into *p the way encoding/json fills a pointer
// field: a nil pointer gets a fresh value, a set one (an earlier
// duplicate key) is decoded into in place.
func Ptr[T any](d *Dec, p **T, elem func(*Dec, *T) bool) bool {
	if *p == nil {
		*p = new(T)
	}
	return elem(d, *p)
}

// DecList decodes an array into *p the way encoding/json does: elements
// are decoded into the slice's existing storage, which a duplicate key
// makes visible, the length is cut to the elements read, and an empty
// array is an empty, non-nil slice.
func DecList[T any](d *Dec, p *[]T, elem func(*Dec, *T) bool) bool {
	if !d.next('[') {
		return false
	}
	s, i := *p, 0
	if !d.next(']') {
		if s == nil {
			// A fresh slice can be sized up front: only the storage a
			// duplicate key reuses is visible, and that is the same. The
			// hint is capped, so input that will be declined cannot make
			// a large allocation; longer arrays grow as they decode.
			s = make([]T, 0, min(d.elems(), maxElemsHint))
		}
		for {
			if i == cap(s) {
				s = append(s, *new(T))
			} else if i >= len(s) {
				s = s[:i+1]
			}
			if !elem(d, &s[i]) {
				return false
			}
			i++
			if !d.next(',') {
				if !d.next(']') {
					return false
				}
				break
			}
		}
	}
	if i == 0 {
		s = []T{}
	}
	*p = s[:i]
	return true
}

// elems counts the elements of the array whose '[' was just consumed. It
// is a capacity hint: on input outside the strict subset it may be off.
func (d *Dec) elems() int {
	n, depth, inStr := 1, 0, false
	for _, c := range d.b[d.i:] {
		if !delim[c] {
			continue
		}
		switch {
		case c == '"':
			inStr = !inStr
		case inStr:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			if depth == 0 {
				return n
			}
			depth--
		case depth == 0:
			n++
		}
	}
	return n
}

// maxElemsHint caps the capacity elems can ask for; display sets and
// frames are far shorter.
const maxElemsHint = 64

// delim marks the bytes elems looks at.
var delim = [256]bool{'"': true, '[': true, '{': true, ']': true, '}': true, ',': true}
