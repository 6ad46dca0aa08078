package strictjson

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// values are documents a skipped member may hold, valid and not.
var values = []string{
	`0`, `-0`, `1`, `-12`, `0.5`, `1e5`, `1E+5`, `-2.5e-3`, `1e400`,
	`01`, `-`, `.5`, `1.`, `1e`, `1e+`, `+1`, `0x10`, `NaN`, `Infinity`, `- 1`,
	`""`, `"a"`, `"\"\\\/\b\f\n\r\t"`, `"é𝄞"`, `"é"`, "\"\xff\"",
	`"\u12"`, `"\u12g4"`, `"\x"`, "\"a\tb\"", `"a`,
	`true`, `false`, `null`, `tru`, `nul`, `True`,
	`[]`, `[ ]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[[[]]]`, `[`, `]`,
	`{}`, `{ }`, `{"a":1}`, `{"a":1,"a":2}`, `{"a":[{"b":null}]}`, `{"a"}`, `{"a":}`, `{1:2}`,
	`{"a":1,}`, `{"a" 1}`, `{`,
	` {"a" : [ 1 , { } ] } `, "\t\n\r 7 \n",
}

// TestSkipMatchesValid: a skipped value followed by End is accepted exactly
// when encoding/json finds the document valid.
func TestSkipMatchesValid(t *testing.T) {
	for _, v := range values {
		c := New([]byte(v))
		_, err := c.Skip()
		if err == nil {
			err = c.End()
		}
		if got, want := err == nil, json.Valid([]byte(v)); got != want {
			t.Errorf("%q: accepted %v (err %v), json.Valid %v", v, got, err, want)
		}
	}
}

// FuzzSkip: every document Skip and End accept is valid JSON.
func FuzzSkip(f *testing.F) {
	for _, v := range values {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(data)
		if _, err := c.Skip(); err == nil && c.End() == nil && !json.Valid(data) {
			t.Fatalf("accepted invalid JSON %q", data)
		}
	})
}

// TestDepth: nesting up to maxDepth is read, one level more is refused.
func TestDepth(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		doc := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		_, err := New([]byte(doc)).Skip()
		if (err == nil) != (depth <= maxDepth) {
			t.Errorf("depth %d: err = %v", depth, err)
		}
	}
}

// TestNumbers: the number readers return what encoding/json decodes into
// the same Go type, and refuse what it refuses or what the grammar narrows.
func TestNumbers(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		f    float64 // want from Float64, NaN when refused
		i    int64   // want from Int, math.MinInt64 when refused
		u    uint64  // want from Uint64
		uBad bool    // Uint64 refuses it
	}{
		{`0`, 0, 0, 0, false},
		{`-0`, math.Copysign(0, -1), 0, 0, true},
		{`17`, 17, 17, 17, false},
		{`-17`, -17, -17, 0, true},
		{`2.5`, 2.5, math.MinInt64, 0, true},
		{`1e2`, 100, math.MinInt64, 0, true},
		{`0.1`, 0.1, math.MinInt64, 0, true},
		{`9223372036854775807`, 9223372036854775807, math.MaxInt64, 9223372036854775807, false},
		{`9223372036854775808`, 9223372036854775808, math.MinInt64, 9223372036854775808, false},
		{`18446744073709551616`, 18446744073709551616, math.MinInt64, 0, true},
		{`1e400`, math.NaN(), math.MinInt64, 0, true},
		{`01`, math.NaN(), math.MinInt64, 0, true},
		{`null`, math.NaN(), math.MinInt64, 0, true},
	} {
		read := func(get func(c *Cursor) error) error {
			c := New([]byte(tc.doc))
			err := get(c)
			if err == nil {
				err = c.End()
			}
			return err
		}
		var f float64
		err := read(func(c *Cursor) (err error) { f, err = c.Float64(); return err })
		if math.IsNaN(tc.f) != (err != nil) || err == nil && math.Float64bits(f) != math.Float64bits(tc.f) {
			t.Errorf("Float64(%s) = %v, %v; want %v", tc.doc, f, err, tc.f)
		}
		var i int
		err = read(func(c *Cursor) (err error) { i, err = c.Int(); return err })
		if (tc.i == math.MinInt64) != (err != nil) || err == nil && int64(i) != tc.i {
			t.Errorf("Int(%s) = %v, %v; want %v", tc.doc, i, err, tc.i)
		}
		var u uint64
		err = read(func(c *Cursor) (err error) { u, err = c.Uint64(); return err })
		if tc.uBad != (err != nil) || err == nil && u != tc.u {
			t.Errorf("Uint64(%s) = %v, %v; want %v (refused: %v)", tc.doc, u, err, tc.u, tc.uBad)
		}
	}
}

// TestObject: known members are read by exact name in any order, unknown
// ones are skipped, and a duplicate, escaped or case-folded name is refused.
func TestObject(t *testing.T) {
	read := func(doc string) (a int, b string, err error) {
		c := New([]byte(doc))
		err = c.Object(
			Member{Name: "a", Read: func(c *Cursor) (err error) { a, err = c.Int(); return err }},
			Member{Name: "bee", Read: func(c *Cursor) (err error) { b, err = c.Text(); return err }},
		)
		if err == nil {
			err = c.End()
		}
		return a, b, err
	}
	for _, doc := range []string{
		`{"a":1,"bee":"x"}`,
		` { "bee" : "x" , "z" : {"a":[2,"\""]}, "a" : 1 } `,
	} {
		if a, b, err := read(doc); err != nil || a != 1 || b != "x" {
			t.Errorf("%s: a=%d b=%q err=%v", doc, a, b, err)
		}
	}
	for _, doc := range []string{
		`{"a":1,"a":1}`, `{"\u0061":1}`, `{"A":1}`, `{"BEE":"x"}`, `{"bee":"\u0078"}`,
		`{"bee":null}`, `{"a":null}`, `{"a":1}x`, `null`, `[]`,
	} {
		if _, _, err := read(doc); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
}
