package rrapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"testing"
)

// jsonDecode is the reference: how encoding/json reads a batch body.
func jsonDecode(body []byte) ([]int, error) {
	var req BatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Reports, err
}

func TestDecodeBatch(t *testing.T) {
	maxInt, minInt := strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt)
	accepted := []struct {
		name, body string
		want       []int
	}{
		{"sdk", `{"reports":[0,1,2]}`, []int{0, 1, 2}},
		{"empty array", `{"reports":[]}`, []int{}},
		{"test spacing", `{"reports": [0, 1, 2]}`, []int{0, 1, 2}},
		{"whitespace everywhere", " \t\r\n{ \"reports\"\n:\t[ 7 ,\r\n8 ] } \n", []int{7, 8}},
		{"whitespace in empty array", `{"reports":[ ]}`, []int{}},
		{"negative", `{"reports":[-1,-0,-42]}`, []int{-1, 0, -42}},
		{"int extremes", `{"reports":[` + maxInt + `,` + minInt + `]}`, []int{math.MaxInt, math.MinInt}},
		{"multi-digit", `{"reports":[10,4095,100000]}`, []int{10, 4095, 100000}},
	}
	for _, tc := range accepted {
		t.Run("accept/"+tc.name, func(t *testing.T) {
			got, err := DecodeBatch([]byte(tc.body), []int{99, 99, 99, 99})
			if err != nil {
				t.Fatalf("DecodeBatch(%q): %v", tc.body, err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("DecodeBatch(%q) = %v, want %v", tc.body, got, tc.want)
			}
			ref, err := jsonDecode([]byte(tc.body))
			if err != nil || !slices.Equal(ref, got) {
				t.Fatalf("encoding/json reads %q as %v (%v), the codec as %v", tc.body, ref, err, got)
			}
		})
	}

	overflow := strconv.FormatUint(uint64(math.MaxInt)+1, 10)
	underflow := "-" + strconv.FormatUint(uint64(math.MaxInt)+2, 10)
	rejected := []struct{ name, body string }{
		// Bodies encoding/json also accepts: the documented narrowing.
		{"no member", `{}`},
		{"null array", `{"reports":null}`},
		{"unknown member after", `{"reports":[1],"extra":2}`},
		{"unknown member before", `{"extra":2,"reports":[1]}`},
		{"other key", `{"other":[1]}`},
		{"key case", `{"Reports":[1]}`},
		{"key escape", `{"report\u0073":[1]}`},
		{"duplicate member", `{"reports":[1],"reports":[2]}`},
		{"trailing data", `{"reports":[1]} x`},
		{"trailing object", `{"reports":[1]}{}`},
		// Bodies neither decoder accepts.
		{"empty body", ``},
		{"whitespace only", " \n"},
		{"fraction", `{"reports":[1.0]}`},
		{"exponent", `{"reports":[1e2]}`},
		{"leading zero", `{"reports":[01]}`},
		{"overflow", `{"reports":[` + overflow + `]}`},
		{"underflow", `{"reports":[` + underflow + `]}`},
		{"plus sign", `{"reports":[+1]}`},
		{"lone minus", `{"reports":[-]}`},
		{"string element", `{"reports":["1"]}`},
		{"null element", `{"reports":[null]}`},
		{"trailing comma", `{"reports":[1,]}`},
		{"leading comma", `{"reports":[,1]}`},
		{"missing comma", `{"reports":[1 2]}`},
		{"truncated", `{"reports":[1`},
		{"unclosed object", `{"reports":[1]`},
		{"bare array", `[1,2]`},
		{"not json", `not json`},
	}
	for _, tc := range rejected {
		t.Run("reject/"+tc.name, func(t *testing.T) {
			got, err := DecodeBatch([]byte(tc.body), nil)
			if !errors.Is(err, ErrBadBatch) {
				t.Fatalf("DecodeBatch(%q) = %v, %v; want an ErrBadBatch error", tc.body, got, err)
			}
		})
	}
}

func TestAppendBatchMatchesJSON(t *testing.T) {
	for _, reports := range [][]int{{}, {0}, {3, 1, 4, 1, 5}, {-7, math.MaxInt, math.MinInt, 0, 123456}} {
		want, err := json.Marshal(BatchRequest{Reports: reports})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBatch([]byte("prefix"), reports); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendBatch(%v) = %s, want %s", reports, got[len("prefix"):], want)
		}
	}
	// nil encodes as an empty array, which DecodeBatch accepts, not as null.
	if got := AppendBatch(nil, nil); string(got) != `{"reports":[]}` {
		t.Fatalf("AppendBatch(nil) = %s", got)
	}
}

// FuzzBatchCodec checks two properties. Any body DecodeBatch accepts,
// encoding/json accepts with identical reports. And for report slices built
// from the fuzz bytes, AppendBatch writes what json.Marshal writes and
// DecodeBatch reads it back.
func FuzzBatchCodec(f *testing.F) {
	for _, seed := range []string{
		`{"reports":[0,1,2]}`,
		`{"reports": [0, 1, 2]}`,
		" { \"reports\" : [ -5 , 0 ] } ",
		`{"reports":[]}`,
		`{"reports":[9223372036854775807,-9223372036854775808]}`,
		`{"reports":[1.5e3]}`,
		`{"reports":null}`,
		`{"Reports":[1]}`,
		`{"reports":[1],"reports":[2]}`,
		`{"reports":[01]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := DecodeBatch(data, nil); err == nil {
			ref, refErr := jsonDecode(data)
			if refErr != nil {
				t.Fatalf("codec accepts %q as %v, encoding/json rejects it: %v", data, got, refErr)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("codec reads %q as %v, encoding/json as %v", data, got, ref)
			}
		} else if !errors.Is(err, ErrBadBatch) {
			t.Fatalf("DecodeBatch(%q) failed without ErrBadBatch: %v", data, err)
		}

		// Reports from the fuzz bytes: each byte as a small signed value,
		// each 8-byte word as a full-width one.
		reports := make([]int, 0, len(data)+len(data)/8)
		for _, b := range data {
			reports = append(reports, int(int8(b)))
		}
		for k := 0; k+8 <= len(data); k += 8 {
			reports = append(reports, int(int64(binary.LittleEndian.Uint64(data[k:]))))
		}
		body := AppendBatch(nil, reports)
		want, err := json.Marshal(BatchRequest{Reports: reports})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("AppendBatch(%v) = %s, json.Marshal = %s", reports, body, want)
		}
		back, err := DecodeBatch(body, usedDst(len(data)%5))
		if err != nil {
			t.Fatalf("DecodeBatch rejects AppendBatch's %s: %v", body, err)
		}
		if !slices.Equal(back, reports) {
			t.Fatalf("round trip of %v read back %v", reports, back)
		}
	})
}

// usedDst gives DecodeBatch a used destination slice to overwrite.
func usedDst(n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = -1
	}
	return out
}

// BenchmarkBatchCodec times one 1000-report dense batch through the codec
// and through encoding/json, each way: ns/op is per batch.
func BenchmarkBatchCodec(b *testing.B) {
	reports := make([]int, 1000)
	for k := range reports {
		reports[k] = (k*7 + k/3) % 10
	}
	body := AppendBatch(nil, reports)
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = AppendBatch(nil, reports) // as the SDK encodes
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := json.Marshal(BatchRequest{Reports: reports})
			if err != nil {
				b.Fatal(err)
			}
			sinkBytes = out
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var dst []int
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = DecodeBatch(body, dst); err != nil {
				b.Fatal(err)
			}
		}
		sinkInts = dst
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req BatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			sinkInts = req.Reports
		}
	})
}

var (
	sinkBytes []byte
	sinkInts  []int
)
