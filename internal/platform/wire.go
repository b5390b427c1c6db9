package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The wire codec: a reflection-free JSON encoder and decoder for the
// payloads of the completion round trip — display sets ([]TaskView),
// CompleteResponse, completeRequest and addTasksRequest. encoding/json
// stays the definition of the wire format; this file is a faster way to
// produce and read the same bytes, never a second format.
//
// The encoder appends exactly what json.Marshal appends for these types
// (writeJSON adds the trailing newline json.Encoder writes): fields in
// declaration order, omitempty as tagged, HTML-safe strings and the ES6
// float format. A string that needs any escaping is quoted by
// json.Marshal itself, and a non-finite float — an error in
// encoding/json — makes the encoder decline, so the caller's
// encoding/json fallback reports it.
//
// The decoder accepts only a strict subset of JSON: any whitespace and
// key order, exact field names, strings of printable ASCII without
// escapes, integers without fraction, exponent or leading zeros that fit
// their field, and nothing after the value but whitespace. On anything
// else — an escape, non-ASCII, null, a key differing in case, an unknown
// key, an overflow, malformed JSON — it declines, and the caller hands
// the same bytes to encoding/json. Whatever the decoder accepts it
// decodes as encoding/json would, duplicate keys and slice reuse
// included, so a decline can never change what a request means.

// appendWire appends the JSON encoding of v to b when v is one of the
// codec's types. ok is false for any other type and for a non-finite
// float; b's contents are then unchanged.
func appendWire(b []byte, v any) (_ []byte, ok bool) {
	e := wireEnc{b: b}
	switch v := v.(type) {
	case []TaskView:
		encList(&e, v, (*wireEnc).taskView)
	case CompleteResponse:
		e.completeResponse(&v)
	case completeRequest:
		e.completeRequest(&v)
	case addTasksRequest:
		e.addTasksRequest(&v)
	default:
		return b, false
	}
	if e.bad {
		return b, false
	}
	return e.b, true
}

// wireEnc is the append encoder; bad records a value encoding/json
// rejects.
type wireEnc struct {
	b   []byte
	bad bool
}

func (e *wireEnc) raw(s string) { e.b = append(e.b, s...) }

func (e *wireEnc) str(s *string) {
	for i := 0; i < len(*s); i++ {
		if c := (*s)[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(*s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, *s...)
	e.b = append(e.b, '"')
}

// float formats f as encoding/json does: 'f' form, 'e' form outside
// [1e-6, 1e21) with the exponent's leading zero dropped (1e-07 → 1e-7).
func (e *wireEnc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *wireEnc) int(n *int) { e.b = strconv.AppendInt(e.b, int64(*n), 10) }

func (e *wireEnc) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// encList encodes a slice, nil as null.
func encList[T any](e *wireEnc, s []T, elem func(*wireEnc, *T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		elem(e, &s[i])
	}
	e.b = append(e.b, ']')
}

func (e *wireEnc) taskView(v *TaskView) {
	e.raw(`{"id":`)
	e.str(&v.ID)
	if v.Group != "" {
		e.raw(`,"group":`)
		e.str(&v.Group)
	}
	e.raw(`,"reward":`)
	e.float(v.Reward)
	e.raw(`,"keywords":`)
	encList(e, v.Keywords, (*wireEnc).int)
	e.raw(`,"done":`)
	e.bool(v.Done)
	if len(v.Questions) > 0 {
		e.raw(`,"questions":`)
		encList(e, v.Questions, (*wireEnc).questionView)
	}
	if v.DeadlineMS != 0 {
		e.raw(`,"deadline_ms":`)
		e.b = strconv.AppendInt(e.b, v.DeadlineMS, 10)
	}
	e.raw(`}`)
}

func (e *wireEnc) questionView(v *QuestionView) {
	e.raw(`{"id":`)
	e.str(&v.ID)
	e.raw(`,"prompt":`)
	e.str(&v.Prompt)
	e.raw(`,"options":`)
	encList(e, v.Options, (*wireEnc).str)
	e.raw(`}`)
}

func (e *wireEnc) completeResponse(v *CompleteResponse) {
	e.raw(`{"reassigned":`)
	e.bool(v.Reassigned)
	e.raw(`,"alpha":`)
	e.float(v.Alpha)
	e.raw(`,"beta":`)
	e.float(v.Beta)
	e.raw(`,"graded":`)
	e.int(&v.Graded)
	e.raw(`,"correct":`)
	e.int(&v.Correct)
	e.raw(`,"tasks":`)
	encList(e, v.Tasks, (*wireEnc).taskView)
	e.raw(`}`)
}

func (e *wireEnc) completeRequest(v *completeRequest) {
	e.raw(`{"task_id":`)
	e.str(&v.TaskID)
	if len(v.Answers) > 0 {
		e.raw(`,"answers":`)
		encList(e, v.Answers, (*wireEnc).answer)
	}
	e.raw(`}`)
}

func (e *wireEnc) answer(v *Answer) {
	e.raw(`{"question_id":`)
	e.str(&v.QuestionID)
	e.raw(`,"option":`)
	e.int(&v.Option)
	e.raw(`}`)
}

func (e *wireEnc) addTasksRequest(v *addTasksRequest) {
	e.raw(`{"tasks":`)
	encList(e, v.Tasks, (*wireEnc).taskUpload)
	e.raw(`}`)
}

func (e *wireEnc) taskUpload(v *taskUpload) {
	e.raw(`{"id":`)
	e.str(&v.ID)
	e.raw(`,"group":`)
	e.str(&v.Group)
	e.raw(`,"reward":`)
	e.float(v.Reward)
	e.raw(`,"keywords":`)
	encList(e, v.Keywords, (*wireEnc).int)
	if v.DeadlineMS != 0 {
		e.raw(`,"deadline_ms":`)
		e.b = strconv.AppendInt(e.b, v.DeadlineMS, 10)
	}
	e.raw(`}`)
}

// decodeWire decodes data into out when out is a pointer to one of the
// codec's types and data is in the strict subset, and reports whether it
// did; on false out is untouched. out must point at a zero value, as
// every caller's does: the value is decoded fresh and stored whole.
func decodeWire(data []byte, out any) bool {
	d := &wireDec{b: data}
	switch out := out.(type) {
	case *[]TaskView:
		return decodeFresh(d, out, func(d *wireDec, v *[]TaskView) bool {
			return decList(d, v, (*wireDec).taskView)
		})
	case *CompleteResponse:
		return decodeFresh(d, out, (*wireDec).completeResponse)
	case *completeRequest:
		return decodeFresh(d, out, (*wireDec).completeRequest)
	case *addTasksRequest:
		return decodeFresh(d, out, (*wireDec).addTasksRequest)
	}
	return false
}

// decodeFresh decodes the whole input into a zero T and stores it in
// *out only if dec accepts it.
func decodeFresh[T any](d *wireDec, out *T, dec func(*wireDec, *T) bool) bool {
	var v T
	if !dec(d, &v) || !d.end() {
		return false
	}
	*out = v
	return true
}

// wireDec is the strict decoder's cursor. Every method skips leading
// whitespace and returns false to decline.
type wireDec struct {
	b []byte
	i int
}

func (d *wireDec) ws() {
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
func (d *wireDec) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *wireDec) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// span scans a string of printable ASCII without escapes and returns its
// contents, which alias the input.
func (d *wireDec) span() ([]byte, bool) {
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

func (d *wireDec) str(p *string) bool {
	s, ok := d.span()
	if ok {
		*p = string(s)
	}
	return ok
}

func (d *wireDec) bool(p *bool) bool {
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
func (d *wireDec) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// number scans a JSON number and reports whether it is an integer (no
// fraction, no exponent).
func (d *wireDec) number() (lit []byte, integer, ok bool) {
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

func (d *wireDec) float(p *float64) bool {
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
func (d *wireDec) integer(bits int) (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

func (d *wireDec) int(p *int) bool {
	n, ok := d.integer(strconv.IntSize)
	if ok {
		*p = int(n)
	}
	return ok
}

func (d *wireDec) int64(p *int64) bool {
	n, ok := d.integer(64)
	if ok {
		*p = n
	}
	return ok
}

// object decodes an object, handing each key to field, which decodes the
// value or declines.
func (d *wireDec) object(field func(key []byte) bool) bool {
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

// decList decodes an array into *p the way encoding/json does: elements
// are decoded into the slice's existing storage, which a duplicate key
// makes visible, the length is cut to the elements read, and an empty
// array is an empty, non-nil slice.
func decList[T any](d *wireDec, p *[]T, elem func(*wireDec, *T) bool) bool {
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
func (d *wireDec) elems() int {
	n, depth, inStr := 1, 0, false
	for _, c := range d.b[d.i:] {
		if !wireDelim[c] {
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

// maxElemsHint caps the capacity elems can ask for; display sets are
// far shorter.
const maxElemsHint = 64

// wireDelim marks the bytes elems looks at.
var wireDelim = [256]bool{'"': true, '[': true, '{': true, ']': true, '}': true, ',': true}

func (d *wireDec) taskView(v *TaskView) bool {
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.str(&v.ID)
		case "group":
			return d.str(&v.Group)
		case "reward":
			return d.float(&v.Reward)
		case "keywords":
			return decList(d, &v.Keywords, (*wireDec).int)
		case "done":
			return d.bool(&v.Done)
		case "questions":
			return decList(d, &v.Questions, (*wireDec).questionView)
		case "deadline_ms":
			return d.int64(&v.DeadlineMS)
		}
		return false
	})
}

func (d *wireDec) questionView(v *QuestionView) bool {
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.str(&v.ID)
		case "prompt":
			return d.str(&v.Prompt)
		case "options":
			return decList(d, &v.Options, (*wireDec).str)
		}
		return false
	})
}

func (d *wireDec) completeResponse(v *CompleteResponse) bool {
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "reassigned":
			return d.bool(&v.Reassigned)
		case "alpha":
			return d.float(&v.Alpha)
		case "beta":
			return d.float(&v.Beta)
		case "graded":
			return d.int(&v.Graded)
		case "correct":
			return d.int(&v.Correct)
		case "tasks":
			return decList(d, &v.Tasks, (*wireDec).taskView)
		}
		return false
	})
}

func (d *wireDec) completeRequest(v *completeRequest) bool {
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "task_id":
			return d.str(&v.TaskID)
		case "answers":
			return decList(d, &v.Answers, (*wireDec).answer)
		}
		return false
	})
}

func (d *wireDec) answer(v *Answer) bool {
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "question_id":
			return d.str(&v.QuestionID)
		case "option":
			return d.int(&v.Option)
		}
		return false
	})
}

func (d *wireDec) addTasksRequest(v *addTasksRequest) bool {
	return d.object(func(k []byte) bool {
		return string(k) == "tasks" && decList(d, &v.Tasks, (*wireDec).taskUpload)
	})
}

func (d *wireDec) taskUpload(v *taskUpload) bool {
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return d.str(&v.ID)
		case "group":
			return d.str(&v.Group)
		case "reward":
			return d.float(&v.Reward)
		case "keywords":
			return decList(d, &v.Keywords, (*wireDec).int)
		case "deadline_ms":
			return d.int64(&v.DeadlineMS)
		}
		return false
	})
}
