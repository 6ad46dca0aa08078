package sketch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"optrr/internal/rr"
)

// The forms encoding/json read an envelope, a sketch payload and a matrix
// into before the one-pass decoders. They stay as the oracle
// (oracleScheme) FuzzUnmarshalScheme and the compatibility tables check
// rr.UnmarshalScheme against, for both registered kinds.
type (
	schemeEnvelope struct {
		Kind   string          `json:"kind"`
		Scheme json.RawMessage `json:"scheme"`
	}
	cmsJSON struct {
		Domain    int             `json:"domain"`
		Hashes    int             `json:"hashes"`
		HashRange int             `json:"hash_range"`
		HashSeed  uint64          `json:"hash_seed"`
		Inner     json.RawMessage `json:"inner"`
	}
	matrixJSON struct {
		Categories int         `json:"categories"`
		Columns    [][]float64 `json:"columns"`
	}
)

// oracleScheme decodes an envelope as rr.UnmarshalScheme did before the
// one-pass decoders: one json.Unmarshal per layer, each handed the raw
// bytes of the layer below.
func oracleScheme(data []byte) (rr.Scheme, error) {
	var env schemeEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	switch env.Kind {
	case rr.DenseKind:
		return oracleMatrix(env.Scheme)
	case Kind:
		var raw cmsJSON
		if err := json.Unmarshal(env.Scheme, &raw); err != nil {
			return nil, err
		}
		if len(raw.Inner) == 0 || string(raw.Inner) == "null" {
			return nil, errors.New("missing inner matrix")
		}
		inner, err := oracleMatrix(raw.Inner)
		if err != nil {
			return nil, err
		}
		return New(raw.Domain, raw.Hashes, raw.HashRange, inner, raw.HashSeed)
	}
	return nil, fmt.Errorf("unknown kind %q", env.Kind)
}

// oracleMatrix decodes a matrix as Matrix.UnmarshalJSON did before the
// one-pass decoder.
func oracleMatrix(data []byte) (*rr.Matrix, error) {
	var raw matrixJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	if raw.Categories != len(raw.Columns) {
		return nil, fmt.Errorf("%d categories but %d columns", raw.Categories, len(raw.Columns))
	}
	return rr.FromColumns(raw.Columns)
}

// sameScheme asserts that two schemes are the same value: the same kind,
// the same version and equal canonical encodings, which write every float
// in its shortest exact form, so the matrix entries are equal bit for bit.
func sameScheme(t *testing.T, got, want rr.Scheme) {
	t.Helper()
	g, err := rr.MarshalScheme(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := rr.MarshalScheme(want)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != want.Kind() || rr.EnvelopeVersion(g) != rr.EnvelopeVersion(w) || !bytes.Equal(g, w) {
		t.Fatalf("decoded %s scheme %.200s, encoding/json read %s scheme %.200s", got.Kind(), g, want.Kind(), w)
	}
}

// matrixFile is a dense matrix as cmd/optrr writes its output file, through
// json.MarshalIndent with two-space indentation.
func matrixFile(t testing.TB, m *rr.Matrix) []byte {
	t.Helper()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// envelopeShapes returns every spelling of an envelope a writer has produced
// or may produce, for both kinds: the canonical envelopes, re-indented
// ones, members in another order at each layer, unknown members at each
// layer, and cmd/optrr's matrix file as a dense payload.
func envelopeShapes(t testing.TB) map[string][]byte {
	t.Helper()
	dense, err := rr.Warner(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cms, err := NewKRR(64, 4, 8, 2, 1<<63+9)
	if err != nil {
		t.Fatal(err)
	}
	denseEnv, err := rr.MarshalScheme(dense)
	if err != nil {
		t.Fatal(err)
	}
	cmsEnv, err := rr.MarshalScheme(cms)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := dense.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := cms.Inner().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var indented, indentedCMS bytes.Buffer
	if err := json.Indent(&indented, denseEnv, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indentedCMS, cmsEnv, "", "\t"); err != nil {
		t.Fatal(err)
	}
	// The matrix with its members swapped and an unknown member between
	// them.
	columns := string(matrix[strings.Index(string(matrix), `"columns":`) : len(matrix)-1])
	reordered := `{` + columns + `,"note":"rows sum to one","categories":4}`
	cmsPayload := func(innerJSON string) string {
		return `{"inner":` + innerJSON + `,"hash_seed":9223372036854775817,"hash_range":8,"hashes":4,"domain":64,"rev":[1,{"a":null}]}`
	}
	return map[string][]byte{
		"dense envelope":                            denseEnv,
		"cms envelope":                              cmsEnv,
		"dense envelope, json.Indent":               indented.Bytes(),
		"cms envelope, json.Indent":                 indentedCMS.Bytes(),
		"dense envelope, members reversed":          []byte(`{"scheme":` + string(matrix) + `,"kind":"dense"}`),
		"cms envelope, members reversed":            []byte(`{"scheme":` + cmsPayload(string(inner)) + `,"kind":"cms"}`),
		"dense envelope, matrix members reordered":  []byte(`{"kind":"dense","scheme":` + reordered + `}`),
		"cms envelope, payload members reordered":   []byte(`{"kind":"cms","scheme":` + cmsPayload(string(inner)) + `}`),
		"envelope with an unknown member":           []byte(`{"kind":"dense","v":2.5e-3,"scheme":` + string(matrix) + `,"meta":{"by":"xé\"y","at":[true,false,null]}}`),
		"dense envelope of cmd/optrr's matrix file": []byte(`{"kind":"dense","scheme":` + string(matrixFile(t, dense)) + `}`),
	}
}

// TestUnmarshalSchemeCompat: every envelope shape decodes to what
// encoding/json reads from it, and so does cmd/optrr's matrix file through
// Matrix.UnmarshalJSON (cmd/rrserver's -matrix flag).
func TestUnmarshalSchemeCompat(t *testing.T) {
	for name, data := range envelopeShapes(t) {
		t.Run(name, func(t *testing.T) {
			got, err := rr.UnmarshalScheme(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleScheme(data)
			if err != nil {
				t.Fatalf("encoding/json rejects it: %v", err)
			}
			sameScheme(t, got, want)
		})
	}
	t.Run("cmd/optrr matrix file", func(t *testing.T) {
		m, err := rr.Warner(5, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		file := append(matrixFile(t, m), '\n')
		got := new(rr.Matrix)
		if err := got.UnmarshalJSON(file); err != nil {
			t.Fatal(err)
		}
		want, err := oracleMatrix(file)
		if err != nil {
			t.Fatal(err)
		}
		sameScheme(t, got, want)
	})
}

// TestUnmarshalSchemeRejects pins each rejection the one-pass decoder
// documents: every one wraps rr.ErrBadScheme, and the table records which
// of them encoding/json let through.
func TestUnmarshalSchemeRejects(t *testing.T) {
	const matrix = `{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]}`
	inner := func(entry string) string {
		return `{"kind":"dense","scheme":{"categories":2,"columns":[[` + entry + `,0.2],[0.2,0.8]]}}`
	}
	cms := func(members string) string {
		return `{"kind":"cms","scheme":{"domain":64,"hashes":4,"hash_range":2,` + members + `,"inner":` + matrix + `}}`
	}
	for _, tc := range []struct {
		name     string
		data     string
		jsonRead bool // encoding/json decoded it
	}{
		{"duplicate member", `{"kind":"dense","kind":"dense","scheme":` + matrix + `}`, true},
		{"duplicate member in the matrix", `{"kind":"dense","scheme":{"categories":2,"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]}}`, true},
		{"escaped member name", `{"k\u0069nd":"dense","scheme":` + matrix + `}`, true},
		{"escaped kind", `{"kind":"d\u0065nse","scheme":` + matrix + `}`, true},
		{"member name in another case", `{"Kind":"dense","scheme":` + matrix + `}`, true},
		{"member name in another case in the matrix", `{"kind":"dense","scheme":{"Categories":2,"columns":[[0.8,0.2],[0.2,0.8]]}}`, true},
		{"member name under Unicode folding", `{"kind":"dense","ſcheme":` + matrix + `}`, true},
		{"null document", `null`, false},
		{"null payload", `{"kind":"dense","scheme":null}`, false},
		{"null inner matrix", `{"kind":"cms","scheme":{"domain":64,"hashes":4,"hash_range":2,"hash_seed":1,"inner":null}}`, false},
		{"entry without a leading digit", inner(".8"), false},
		{"entry with a leading zero", inner("00.8"), false},
		{"entry with a bare exponent", inner("8e"), false},
		{"entry with a plus sign", inner("+0.8"), false},
		{"hexadecimal entry", inner("0x1p-1"), false},
		{"NaN entry", inner("NaN"), false},
		{"entry outside float64", inner("8e400"), false},
		{"categories with a fraction", `{"kind":"dense","scheme":{"categories":2.0,"columns":[[0.8,0.2],[0.2,0.8]]}}`, false},
		{"negative hash seed", cms(`"hash_seed":-1`), false},
		{"negative zero hash seed", cms(`"hash_seed":-0`), false},
		{"hash seed outside uint64", cms(`"hash_seed":18446744073709551616`), false},
		{"trailing data", `{"kind":"dense","scheme":` + matrix + `} 0`, false},
		{"second document", `{"kind":"dense","scheme":` + matrix + `}{}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := rr.UnmarshalScheme([]byte(tc.data)); !errors.Is(err, rr.ErrBadScheme) {
				t.Fatalf("err = %v, want rr.ErrBadScheme", err)
			}
			_, err := oracleScheme([]byte(tc.data))
			if jsonRead := err == nil; jsonRead != tc.jsonRead {
				t.Fatalf("encoding/json decoded it: %v (err %v), want %v", jsonRead, err, tc.jsonRead)
			}
		})
	}
}

// TestLazyInverse: goroutines racing on the first estimate of a freshly
// decoded sketch all see, bit for bit, the inverse inner.Inverse() returns
// and estimate identically, and so does a struct copy of the scheme.
func TestLazyInverse(t *testing.T) {
	src, err := NewKRR(5000, 8, 64, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	env, err := rr.MarshalScheme(src)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := rr.UnmarshalScheme(env)
	if err != nil {
		t.Fatal(err)
	}
	s := decoded.(*CMSScheme)
	want, err := s.Inner().Inverse()
	if err != nil {
		t.Fatal(err)
	}
	records, _ := zipfRecords(5000, 20000, 3)
	reports := make([]int, len(records))
	if err := src.DisguiseBatchInto(reports, records, 4, 1); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, src.ReportSpace())
	for _, r := range reports {
		counts[r]++
	}
	categories := []int{0, 1, 2, 17, 4999}
	wantEst, wantBound, err := refEstimate(src, counts, categories, 1.96, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}

	const racers = 8
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scheme := s
			if g%2 == 1 {
				copied := *s // shares the lazily built inverse
				scheme = &copied
			}
			est, bound, err := scheme.EstimateWithBound(counts, categories, 1.96, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !same(est, wantEst) || !same(bound, wantBound) {
				t.Errorf("racer %d: estimates %v ± %v, want %v ± %v", g, est, bound, wantEst, wantBound)
			}
			inv, err := scheme.inverse()
			if err != nil {
				t.Error(err)
				return
			}
			n := inv.Rows()
			for u := 0; u < n; u++ {
				if !same(inv.RowView(u), want.RowView(u)) {
					t.Errorf("racer %d: inverse row %d differs from inner.Inverse()'s", g, u)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
