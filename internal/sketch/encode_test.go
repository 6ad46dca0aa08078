package sketch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"optrr/internal/rr"
)

// nestedEnvelope is the reference for rr.MarshalScheme: the envelope
// composed the way it was before the encoders appended their parts, each
// layer a json.Marshal over a json.Marshaler or json.RawMessage for the
// layer below, which encoding/json re-scans and compacts.
func nestedEnvelope(s rr.Scheme) ([]byte, error) {
	payload, err := json.Marshal(nestedScheme{s})
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Kind   string          `json:"kind"`
		Scheme json.RawMessage `json:"scheme"`
	}{s.Kind(), payload})
}

// nestedScheme marshals a scheme's payload through the reference layers.
type nestedScheme struct{ s rr.Scheme }

func (n nestedScheme) MarshalJSON() ([]byte, error) {
	switch s := n.s.(type) {
	case *rr.Matrix:
		cols := make([][]float64, s.N())
		for i := range cols {
			cols[i] = s.Column(i)
		}
		return json.Marshal(struct {
			Categories int         `json:"categories"`
			Columns    [][]float64 `json:"columns"`
		}{s.N(), cols})
	case *CMSScheme:
		return json.Marshal(struct {
			Domain    int          `json:"domain"`
			Hashes    int          `json:"hashes"`
			HashRange int          `json:"hash_range"`
			HashSeed  uint64       `json:"hash_seed"`
			Inner     nestedScheme `json:"inner"`
		}{s.Domain(), s.Hashes(), s.HashRange(), s.HashSeed(), nestedScheme{s.Inner()}})
	}
	return nil, fmt.Errorf("no reference encoding for %T", n.s)
}

// checkEncoding asserts that a scheme's MarshalJSON and rr.MarshalScheme
// write the reference composition's bytes.
func checkEncoding(t *testing.T, s rr.Scheme) {
	t.Helper()
	want, err := nestedEnvelope(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rr.MarshalScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s envelope differs from the nested composition:\n got %.200s\nwant %.200s", s.Kind(), got, want)
	}
	wantPayload, err := json.Marshal(nestedScheme{s})
	if err != nil {
		t.Fatal(err)
	}
	gotPayload, err := s.(json.Marshaler).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPayload, wantPayload) {
		t.Fatalf("%s MarshalJSON differs from the nested composition:\n got %.200s\nwant %.200s", s.Kind(), gotPayload, wantPayload)
	}
}

// TestSchemeEncodingMatchesNested: the appended encodings are the nested
// json.Marshal composition byte for byte, for dense and sketch schemes, and
// the deployed shapes keep the fingerprints they had under it.
func TestSchemeEncodingMatchesNested(t *testing.T) {
	warner, err := rr.Warner(10, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	krr, err := NewKRR(100000, 16, 256, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewKRR(64, 4, 8, 2, 1<<63+5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		scheme  rr.Scheme
		version string // "" when not pinned
	}{
		{"dense Warner(10, 0.75)", warner, "f0cb2026d9c612ba"},
		{"cms KRR(100000, 16, 256, 5, 7)", krr, "bb26ee72a23d84cd"},
		{"cms KRR(64, 4, 8, 2), hash seed above 2⁶³", small, ""},
		{"cms inner", krr.Inner(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkEncoding(t, tc.scheme)
			if tc.version == "" {
				return
			}
			if v, err := rr.SchemeVersion(tc.scheme); err != nil || v != tc.version {
				t.Fatalf("SchemeVersion = %q (%v), want %q", v, err, tc.version)
			}
		})
	}
}
