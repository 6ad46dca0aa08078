package rrapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"optrr/internal/rr"
	"optrr/internal/sketch"
)

// oracleDeployment decodes a GET /v1/scheme body as the SDK did before
// DecodeSchemeResponse: a json.Decoder into SchemeResponse, then the
// envelope through rr.UnmarshalScheme (which FuzzUnmarshalScheme checks
// against its own encoding/json oracle), or the legacy matrix when there is
// no envelope, and the scheme's fingerprint when the body has no version.
func oracleDeployment(body []byte) (Deployment, error) {
	var resp SchemeResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
		return Deployment{}, err
	}
	dep := Deployment{Version: resp.Version, Z: resp.Z}
	switch {
	case len(resp.Scheme) > 0:
		s, err := rr.UnmarshalScheme(resp.Scheme)
		if err != nil {
			return Deployment{}, err
		}
		dep.Scheme = s
	case resp.Matrix != nil:
		dep.Scheme = resp.Matrix
	default:
		return Deployment{}, errors.New("no scheme")
	}
	if dep.Version == "" {
		v, err := rr.SchemeVersion(dep.Scheme)
		if err != nil {
			return Deployment{}, err
		}
		dep.Version = v
	}
	return dep, nil
}

// checkOracle asserts that encoding/json reads body to dep: the same
// scheme (kind, and every entry bit for bit: the canonical encodings are
// equal), version and z.
func checkOracle(t *testing.T, body []byte, dep Deployment) {
	t.Helper()
	want, err := oracleDeployment(body)
	if err != nil {
		t.Fatalf("decoded a body encoding/json rejects (%v): %.300q", err, body)
	}
	got, err := rr.MarshalScheme(dep.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	wantEnv, err := rr.MarshalScheme(want.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Scheme.Kind() != want.Scheme.Kind() || !bytes.Equal(got, wantEnv) {
		t.Fatalf("decoded %s scheme %.200s, encoding/json read %s scheme %.200s", dep.Scheme.Kind(), got, want.Scheme.Kind(), wantEnv)
	}
	if dep.Version != want.Version || math.Float64bits(dep.Z) != math.Float64bits(want.Z) {
		t.Fatalf("decoded version %q z %v, encoding/json read %q z %v", dep.Version, dep.Z, want.Version, want.Z)
	}
}

// schemeBodies returns every /v1/scheme body shape a server has written or
// may write: the sketch body, the dense body carrying both the envelope and
// the legacy matrix, the matrix-only body of servers that predate the
// envelope (with and without z), re-indented bodies, members in another
// order, and unknown members.
func schemeBodies(t testing.TB) map[string][]byte {
	t.Helper()
	dense, err := rr.Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cms, err := sketch.NewKRR(500, 4, 8, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	body := func(s rr.Scheme, matrix *rr.Matrix) []byte {
		env, err := rr.MarshalScheme(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeSchemeResponse(SchemeResponse{
			Kind: s.Kind(), Scheme: env, Version: rr.EnvelopeVersion(env), Matrix: matrix, Z: 1.96,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	indent := func(b []byte) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, b, "", "  "); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	denseBody, sketchBody := body(dense, dense), body(cms, nil)
	matrix, err := dense.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	env, err := rr.MarshalScheme(cms)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"sketch body":                   sketchBody,
		"dense body with both forms":    denseBody,
		"matrix-only body":              []byte(`{"matrix":` + string(matrix) + `,"z":1.96}` + "\n"),
		"matrix-only body without z":    []byte(`{"matrix":` + string(matrix) + `}`),
		"sketch body, json.Indent":      indent(sketchBody),
		"dense body, json.Indent":       indent(denseBody),
		"sketch body, members reversed": []byte(`{"z":3.29,"version":"` + rr.EnvelopeVersion(env) + `","scheme":` + string(env) + `,"kind":"cms"}`),
		"sketch body without a version": []byte(`{"kind":"cms","scheme":` + string(env) + `,"z":2}`),
		"sketch body, unknown members": []byte(`{"kind":"cms","api":2,"scheme":` + string(env) +
			`,"expires":"2027-01-01T00:00:00Z","z":1.96,"limits":{"max_batch":131072,"tags":["a\tb",null]}}`),
	}
}

// TestDecodeSchemeResponseCompat: every body shape a server has written
// decodes to what the SDK's encoding/json path read from it.
func TestDecodeSchemeResponseCompat(t *testing.T) {
	for name, body := range schemeBodies(t) {
		t.Run(name, func(t *testing.T) {
			dep, err := DecodeSchemeResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, body, dep)
		})
	}
}

// TestDecodeSchemeResponseRejects pins each rejection the decoder documents:
// every one wraps ErrBadSchemeResponse (and rr.ErrBadScheme when the
// envelope is at fault), and the table records which of them the SDK's
// encoding/json path let through.
func TestDecodeSchemeResponseRejects(t *testing.T) {
	m, err := rr.Warner(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	env, err := rr.MarshalScheme(m)
	if err != nil {
		t.Fatal(err)
	}
	withEnv := func(members string) string {
		return `{"kind":"dense","scheme":` + string(env) + `,` + members + `}`
	}
	for _, tc := range []struct {
		name     string
		data     string
		envelope bool // the envelope is at fault
		jsonRead bool // the SDK's encoding/json path read it
	}{
		{"duplicate member", withEnv(`"z":1.96,"z":2`), false, true},
		{"escaped member name", withEnv(`"\u007a":1.96`), false, true},
		{"escaped version", withEnv(`"version":"v\u0031","z":1.96`), false, true},
		{"member name in another case", withEnv(`"Z":1.96`), false, true},
		{"member name under Unicode folding", `{"kind":"dense","ſcheme":` + string(env) + `,"z":1.96}`, false, true},
		{"null document", `null`, false, false},
		{"null z", withEnv(`"z":null`), false, true},
		{"null matrix beside the envelope", withEnv(`"matrix":null,"z":1.96`), false, true},
		{"null envelope", `{"scheme":null,"z":1.96}`, true, false},
		{"z without a leading digit", withEnv(`"z":.5`), false, false},
		{"z outside float64", withEnv(`"z":1e309`), false, false},
		{"envelope entry outside float64", `{"scheme":{"kind":"dense","scheme":{"categories":2,"columns":[[8e400,0.2],[0.2,0.8]]}},"z":1}`, true, false},
		{"trailing data", withEnv(`"z":1.96`) + "\nx", false, true},
		{"second document", withEnv(`"z":1.96`) + "\n" + withEnv(`"z":3`), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSchemeResponse([]byte(tc.data))
			if !errors.Is(err, ErrBadSchemeResponse) {
				t.Fatalf("err = %v, want ErrBadSchemeResponse", err)
			}
			if errors.Is(err, rr.ErrBadScheme) != tc.envelope {
				t.Fatalf("err = %v wraps rr.ErrBadScheme: %v, want %v", err, !tc.envelope, tc.envelope)
			}
			_, err = oracleDeployment([]byte(tc.data))
			if jsonRead := err == nil; jsonRead != tc.jsonRead {
				t.Fatalf("encoding/json read it: %v (err %v), want %v", jsonRead, err, tc.jsonRead)
			}
		})
	}
	if _, err := DecodeSchemeResponse([]byte(withEnv(`"z":1.96`))); err != nil {
		t.Fatalf("the rejection table's base body is refused: %v", err)
	}
}

// FuzzDecodeSchemeResponse: every body the decoder accepts, the SDK's
// encoding/json path reads to the same scheme, version and z; every body it
// refuses, it refuses with ErrBadSchemeResponse.
func FuzzDecodeSchemeResponse(f *testing.F) {
	for _, body := range schemeBodies(f) {
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte(`{"matrix":{"categories":1,"columns":[[1]]}}`))
	f.Add([]byte(`{"kind":"dense","scheme":{"kind":"dense","scheme":{"categories":1,"columns":[[1e0]]}},"version":"v"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dep, err := DecodeSchemeResponse(body)
		if err != nil {
			if !errors.Is(err, ErrBadSchemeResponse) {
				t.Fatalf("error does not wrap ErrBadSchemeResponse: %v", err)
			}
			return
		}
		checkOracle(t, body, dep)
	})
}
