// Package strictjson reads the JSON documents the collection service writes
// and reads back — scheme envelopes, collector snapshots and the
// GET /v1/scheme body — in one pass, without reflection, straight into the
// values they describe.
//
// A Cursor walks one document. Object hands each known member's value to
// that member's reader where the value lies, so a decoder nested in another
// (a scheme payload in its envelope, an envelope in a snapshot) parses its
// part in place instead of receiving a copy to scan again. encoding/json
// scans a nested value once per layer before the innermost layer parses it.
//
// The grammar is JSON's (RFC 8259), narrowed where the documents' writers
// never go, so that every document a decoder built on a Cursor accepts
// decodes to the same values under encoding/json:
//
//   - A member named exactly as a known member is read by that member's
//     reader, at most once. A duplicate is an error: encoding/json keeps the
//     last one, and no writer repeats a member.
//   - A member name holding an escape, or one that equals a known name only
//     under encoding/json's case folding ("Kind", "ſcheme"), is an error:
//     encoding/json would read it into the known member, and a Cursor
//     compares names as raw bytes.
//   - Any other member is validated and skipped, as encoding/json skips an
//     unknown member, so a newer writer may add members.
//   - The strings a reader takes (member names, Text) hold no escape and are
//     valid UTF-8, so their raw bytes are the string encoding/json would
//     decode. No writer escapes a kind, a version or a member name.
//   - Numbers follow JSON's grammar exactly and are converted by strconv, as
//     encoding/json converts them. Float64 refuses a number outside
//     float64's range; Int and Uint64 refuse a fraction, an exponent or a
//     value outside their type, and Uint64 a minus sign.
//   - A reader refuses null where it expects its value: encoding/json would
//     leave the field unset, and no writer writes null there.
//   - Values nest at most maxDepth deep; encoding/json allows 10 000.
//   - End refuses anything but whitespace after the document.
package strictjson

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxDepth bounds how deeply objects and arrays nest, skipped values
// included: far deeper than any document the service writes (six levels)
// and below encoding/json's limit, so a deep document is refused rather
// than read on a stack it chose.
const maxDepth = 1000

// Cursor reads one JSON document front to back. The zero value reads an
// empty document; use New.
type Cursor struct {
	data  []byte
	off   int
	depth int
}

// New returns a cursor at the start of data. The cursor does not copy data,
// and byte slices it returns alias it.
func New(data []byte) *Cursor { return &Cursor{data: data} }

// Member is a known member of an object: its exact name and the reader of
// its value, which must consume that one value.
type Member struct {
	Name string
	Read func(c *Cursor) error
}

// Object reads one object, calling the Read of the member named exactly as
// each known member it finds (in document order, at most once each) and
// validating and skipping every other member. Members may be absent: their
// readers are then not called. A duplicate known member, a member name with
// an escape and a name that equals a known one only under case folding are
// errors. At most 64 members may be known.
func (c *Cursor) Object(members ...Member) error {
	if len(members) > 64 {
		panic("strictjson: Object with more than 64 known members")
	}
	var seen uint64
	return c.each('{', '}', func() error {
		nameAt := c.off
		name, err := c.name()
		if err == nil {
			err = c.colon()
		}
		if err != nil {
			return err
		}
		switch k := known(members, name); {
		case k >= 0 && seen&(1<<k) != 0:
			return c.errorAt(nameAt, "duplicate member "+members[k].Name)
		case k >= 0:
			seen |= 1 << k
			return members[k].Read(c)
		case folds(members, name):
			return c.errorAt(nameAt, "member name differing from a known one only in case")
		}
		return c.skip()
	})
}

// known returns the index of the member named exactly name, or -1.
func known(members []Member, name []byte) int {
	for k, m := range members {
		if string(name) == m.Name {
			return k
		}
	}
	return -1
}

// folds reports whether name equals a known member's name under Unicode
// case folding, which is how encoding/json matches a name no field has
// exactly.
func folds(members []Member, name []byte) bool {
	for _, m := range members {
		if bytes.EqualFold(name, []byte(m.Name)) {
			return true
		}
	}
	return false
}

// Array reads one array, calling elem once per element; elem must consume
// that one element.
func (c *Cursor) Array(elem func(c *Cursor) error) error {
	return c.each('[', ']', func() error { return elem(c) })
}

// AppendFloats reads an array of numbers, appending them to dst.
func (c *Cursor) AppendFloats(dst []float64) ([]float64, error) {
	err := c.Array(func(c *Cursor) error {
		f, err := c.Float64()
		dst = append(dst, f)
		return err
	})
	return dst, err
}

// AppendInts reads an array of integers, appending them to dst.
func (c *Cursor) AppendInts(dst []int) ([]int, error) {
	err := c.Array(func(c *Cursor) error {
		n, err := c.Int()
		dst = append(dst, n)
		return err
	})
	return dst, err
}

// Float64 reads a number.
func (c *Cursor) Float64() (float64, error) {
	tok, _, err := c.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		// The token is in JSON's grammar, so only its range can fail.
		return 0, c.errorAt(c.off-len(tok), "number outside float64's range")
	}
	return f, nil
}

// Int reads an integer: a number without fraction or exponent, in int's
// range.
func (c *Cursor) Int() (int, error) {
	tok, integer, err := c.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, c.errorAt(c.off-len(tok), "want an integer")
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, c.errorAt(c.off-len(tok), "integer outside int's range")
	}
	return int(n), nil
}

// Uint64 reads a non-negative integer in uint64's range.
func (c *Cursor) Uint64() (uint64, error) {
	tok, integer, err := c.number()
	if err != nil {
		return 0, err
	}
	if !integer || tok[0] == '-' {
		return 0, c.errorAt(c.off-len(tok), "want a non-negative integer")
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return 0, c.errorAt(c.off-len(tok), "integer outside uint64's range")
	}
	return n, nil
}

// Text reads a string without escapes.
func (c *Cursor) Text() (string, error) {
	c.space()
	s, err := c.plainString("string")
	return string(s), err
}

// Skip validates and skips one value, returning its bytes.
func (c *Cursor) Skip() ([]byte, error) {
	c.space()
	start := c.off
	if err := c.skip(); err != nil {
		return nil, err
	}
	return c.data[start:c.off], nil
}

// Equal reports whether the value at the cursor is value byte for byte,
// consuming it if so. value must be one valid JSON object or array: its
// closing bracket then ends the value at the cursor too, so a match needs
// no look past it and no validation.
func (c *Cursor) Equal(value []byte) bool {
	c.space()
	if len(value) == 0 || !bytes.HasPrefix(c.data[c.off:], value) {
		return false
	}
	c.off += len(value)
	return true
}

// End reports an error unless only whitespace is left.
func (c *Cursor) End() error {
	if c.space(); c.off != len(c.data) {
		return c.errorAt(c.off, "want end of input")
	}
	return nil
}

// space skips JSON whitespace.
func (c *Cursor) space() {
	for c.off < len(c.data) {
		switch c.data[c.off] {
		case ' ', '\t', '\n', '\r':
			c.off++
		default:
			return
		}
	}
}

// each reads the object or array opened by opening, one level deeper,
// calling elem once per member or element until the closing bracket.
func (c *Cursor) each(opening, closing byte, elem func() error) error {
	if c.space(); c.off >= len(c.data) || c.data[c.off] != opening {
		return c.errorAt(c.off, "want "+string(opening))
	}
	if c.depth++; c.depth > maxDepth {
		return c.errorAt(c.off, "value nested too deeply")
	}
	c.off++
	if c.space(); c.off < len(c.data) && c.data[c.off] == closing {
		c.off++
		c.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		c.space()
		switch {
		case c.off < len(c.data) && c.data[c.off] == ',':
			c.off++
		case c.off < len(c.data) && c.data[c.off] == closing:
			c.off++
			c.depth--
			return nil
		default:
			return c.errorAt(c.off, "want , or "+string(closing))
		}
	}
}

// name reads a member name, which must hold no escape.
func (c *Cursor) name() ([]byte, error) {
	c.space()
	return c.plainString("member name")
}

// colon consumes the colon after a member name.
func (c *Cursor) colon() error {
	if c.space(); c.off >= len(c.data) || c.data[c.off] != ':' {
		return c.errorAt(c.off, "want :")
	}
	c.off++
	return nil
}

// plainString reads a string with no escape and valid UTF-8, returning the
// bytes between its quotes.
func (c *Cursor) plainString(what string) ([]byte, error) {
	if c.off >= len(c.data) || c.data[c.off] != '"' {
		return nil, c.errorAt(c.off, "want a "+what)
	}
	start := c.off + 1
	for i := start; i < len(c.data); i++ {
		switch b := c.data[i]; {
		case b == '"':
			s := c.data[start:i]
			if !utf8.Valid(s) {
				return nil, c.errorAt(start, what+" with invalid UTF-8")
			}
			c.off = i + 1
			return s, nil
		case b == '\\':
			return nil, c.errorAt(i, "escape in a "+what)
		case b < ' ':
			return nil, c.errorAt(i, "control character in a "+what)
		}
	}
	return nil, c.errorAt(len(c.data), "unterminated "+what)
}

// number scans one number in JSON's grammar, reporting whether it has
// neither fraction nor exponent.
func (c *Cursor) number() (tok []byte, integer bool, err error) {
	c.space()
	d := c.data
	start, i := c.off, c.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, false, c.errorAt(i, "want a number")
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		if i++; i >= len(d) || d[i] < '0' || d[i] > '9' {
			return nil, false, c.errorAt(i, "want a digit after the decimal point")
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			return nil, false, c.errorAt(i, "want a digit in the exponent")
		}
		i = digits(d, i)
	}
	c.off = i
	return d[start:i], integer, nil
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// skip validates and skips one value of any kind.
func (c *Cursor) skip() error {
	c.space()
	if c.off >= len(c.data) {
		return c.errorAt(c.off, "want a value")
	}
	switch c.data[c.off] {
	case '{':
		return c.each('{', '}', func() error {
			err := c.skipString()
			if err == nil {
				err = c.colon()
			}
			if err == nil {
				err = c.skip()
			}
			return err
		})
	case '[':
		return c.Array((*Cursor).skip)
	case '"':
		return c.skipString()
	case 't':
		return c.literal("true")
	case 'f':
		return c.literal("false")
	case 'n':
		return c.literal("null")
	}
	_, _, err := c.number()
	return err
}

// skipString validates and skips a string, escapes included.
func (c *Cursor) skipString() error {
	c.space()
	if c.off >= len(c.data) || c.data[c.off] != '"' {
		return c.errorAt(c.off, "want a string")
	}
	for i := c.off + 1; i < len(c.data); i++ {
		switch b := c.data[i]; {
		case b == '"':
			c.off = i + 1
			return nil
		case b < ' ':
			return c.errorAt(i, "control character in a string")
		case b == '\\':
			switch i++; {
			case i < len(c.data) && strings.IndexByte(`"\/bfnrt`, c.data[i]) >= 0:
			case i+4 < len(c.data) && c.data[i] == 'u' && isHex(c.data[i+1:i+5]):
				i += 4
			default:
				return c.errorAt(i, "invalid escape")
			}
		}
	}
	return c.errorAt(len(c.data), "unterminated string")
}

// isHex reports whether every byte of b is a hex digit.
func isHex(b []byte) bool {
	for _, x := range b {
		if !('0' <= x && x <= '9' || 'a' <= x && x <= 'f' || 'A' <= x && x <= 'F') {
			return false
		}
	}
	return true
}

// literal consumes the literal word.
func (c *Cursor) literal(word string) error {
	if !bytes.HasPrefix(c.data[c.off:], []byte(word)) {
		return c.errorAt(c.off, "want "+word)
	}
	c.off += len(word)
	return nil
}

// errorAt describes where and why the document left the grammar.
func (c *Cursor) errorAt(off int, want string) error {
	if off >= len(c.data) {
		return fmt.Errorf("json: %s at end of input (offset %d)", want, off)
	}
	return fmt.Errorf("json: %s at offset %d (found %q)", want, off, c.data[off])
}
