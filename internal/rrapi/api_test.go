package rrapi

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"optrr/internal/rr"
)

// TestEncodeSchemeResponseMatchesEncoder: the once-built /v1/scheme body is
// what json.NewEncoder(w).Encode writes for the same response, newline
// included, across the omitempty members, escaping in the kind and the
// float formats z can take.
func TestEncodeSchemeResponseMatchesEncoder(t *testing.T) {
	m, err := rr.Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	env, err := rr.MarshalScheme(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []SchemeResponse{
		{Kind: "dense", Scheme: env, Version: "0123456789abcdef", Matrix: m, Z: 1.96},
		{Kind: "cms", Scheme: env, Version: "0123456789abcdef", Z: 3.29},
		{Matrix: m, Z: 2},
		{Z: 1e-7},
		{Kind: "<&>", Scheme: env, Z: 1e21},
		{Version: "v", Z: 0},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := EncodeSchemeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("EncodeSchemeResponse:\n got %s\nwant %s", got, want.Bytes())
		}
	}
	if _, err := EncodeSchemeResponse(SchemeResponse{Z: math.Inf(1)}); err == nil {
		t.Fatal("an infinite z encoded")
	}
}
