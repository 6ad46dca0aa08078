// Package rrapi defines the JSON wire types of the LDP collection service
// (cmd/rrserver): what a disguising client POSTs and what the collector-side
// estimate queries return. It is shared by internal/rrserver (the service)
// and internal/rrclient (the disguise SDK) and deliberately depends on
// nothing but package rr and the strictjson reader, so the client pulls in
// no server code.
//
// It also owns the codec for the one body on the ingest hot path, the
// POST /v1/reports batch: AppendBatch writes exactly what json.Marshal
// writes for a BatchRequest, and DecodeBatch reads it back in one pass
// without reflection, under a strict grammar documented on DecodeBatch.
// EncodeSchemeResponse writes the GET /v1/scheme body a server builds once,
// and DecodeSchemeResponse reads it back in one pass, the scheme envelope
// where it lies (1.4 MB for a sketch at hash range 256). Every other body
// goes through encoding/json with the types below.
//
// The protocol is the paper's Section I split made literal: the private
// value is sampled through the disguise matrix on the respondent's machine,
// and only the disguised category index ever crosses the wire.
package rrapi

import (
	"encoding/json"
	"errors"
	"fmt"

	"optrr/internal/rr"
	"optrr/internal/strictjson"
)

// ReportRequest is the body of POST /v1/report: one disguised category.
type ReportRequest struct {
	Report int `json:"report"`
}

// BatchRequest is the body of POST /v1/reports: many disguised categories,
// ingested atomically (all land or, on any out-of-range report, none do).
// The SDK encodes it with AppendBatch and the service decodes it with
// DecodeBatch.
type BatchRequest struct {
	Reports []int `json:"reports"`
}

// IngestResponse acknowledges an ingest: how many reports the batch carried.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// SchemeResponse is the body of GET /v1/scheme: the deployed disguise
// scheme, so a client can build its local samplers, plus the collection's z
// quantile so client and server quote the same confidence level.
//
// The scheme travels twice for compatibility. Kind/Scheme/Version is the
// current form: a kind-tagged envelope (rr.MarshalScheme) that carries any
// registered scheme — the dense matrix or the count-mean sketch — plus the
// wire fingerprint the server also serves as the ETag. Matrix is the legacy
// dense-only field; servers keep filling it for dense deployments so old
// clients survive, and new clients fall back to it when the envelope is
// absent.
type SchemeResponse struct {
	Kind    string          `json:"kind,omitempty"`
	Scheme  json.RawMessage `json:"scheme,omitempty"`
	Version string          `json:"version,omitempty"`
	Matrix  *rr.Matrix      `json:"matrix,omitempty"`
	Z       float64         `json:"z"`
}

// EncodeSchemeResponse returns the GET /v1/scheme body for resp: byte for
// byte what json.NewEncoder(w).Encode(resp) writes, trailing newline
// included. The envelope in resp.Scheme is appended as it is, so it must be
// compact JSON, as rr.MarshalScheme writes it; encoding/json would re-scan
// and compact it, and a sketch's envelope is 1.4 MB at hash range 256. A
// server encodes its body once and serves the bytes.
func EncodeSchemeResponse(resp SchemeResponse) ([]byte, error) {
	var matrix []byte
	if resp.Matrix != nil {
		var err error
		if matrix, err = resp.Matrix.MarshalJSON(); err != nil {
			return nil, err
		}
	}
	// The short members go through encoding/json, which keeps its escaping
	// and float formatting; z fails here if it is not finite.
	z, err := json.Marshal(resp.Z)
	if err != nil {
		return nil, err
	}
	kind, _ := json.Marshal(resp.Kind)       // a string always encodes
	version, _ := json.Marshal(resp.Version) // a string always encodes
	b := make([]byte, 0, len(resp.Scheme)+len(matrix)+len(kind)+len(version)+64)
	b = append(b, '{')
	member := func(name string, value []byte) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, name...)
		b = append(b, value...)
	}
	if resp.Kind != "" {
		member(`"kind":`, kind)
	}
	if len(resp.Scheme) > 0 {
		member(`"scheme":`, resp.Scheme)
	}
	if resp.Version != "" {
		member(`"version":`, version)
	}
	if matrix != nil {
		member(`"matrix":`, matrix)
	}
	member(`"z":`, z)
	return append(b, "}\n"...), nil
}

// ErrBadSchemeResponse reports a GET /v1/scheme body DecodeSchemeResponse
// cannot read.
var ErrBadSchemeResponse = errors.New("rrapi: malformed scheme body")

// Deployment is what a GET /v1/scheme body tells a client: the deployed
// scheme, its version and the collection's z quantile.
type Deployment struct {
	// Scheme is the envelope's scheme, or the legacy matrix when the body
	// carries no envelope.
	Scheme rr.Scheme
	// Version is the served version, or rr.SchemeVersion of Scheme when the
	// body carries none.
	Version string
	Z       float64
}

// DecodeSchemeResponse decodes a GET /v1/scheme body in one pass under
// package strictjson's grammar. The envelope is parsed where it lies, by
// rr.DecodeScheme; a legacy matrix member is read and validated too,
// whether or not an envelope is there. Kind is read but not used: the
// envelope carries its own. Every body a server wrote is accepted — the
// dense one carrying both forms, the sketch one, the matrix-only body of
// servers that predate the envelope — re-indented or with its members in
// any order. Unknown members are validated and skipped, so a newer server
// may add some. Every body it accepts decodes to the same scheme, version
// and z under encoding/json. It refuses what strictjson refuses — among
// them duplicate members, nulls and trailing data, all of which a
// json.Decoder reads — with an error wrapping ErrBadSchemeResponse (and
// rr.ErrBadScheme when the envelope is at fault).
func DecodeSchemeResponse(body []byte) (Deployment, error) {
	var (
		dep    Deployment
		scheme rr.Scheme
		matrix *rr.Matrix
	)
	doc := strictjson.New(body)
	err := doc.Object(
		strictjson.Member{Name: "kind", Read: func(c *strictjson.Cursor) (err error) {
			_, err = c.Text()
			return err
		}},
		strictjson.Member{Name: "scheme", Read: func(c *strictjson.Cursor) (err error) {
			scheme, err = rr.DecodeScheme(c)
			return err
		}},
		strictjson.Member{Name: "version", Read: func(c *strictjson.Cursor) (err error) {
			dep.Version, err = c.Text()
			return err
		}},
		strictjson.Member{Name: "matrix", Read: func(c *strictjson.Cursor) (err error) {
			matrix, err = rr.DecodeMatrix(c)
			return err
		}},
		strictjson.Member{Name: "z", Read: func(c *strictjson.Cursor) (err error) {
			dep.Z, err = c.Float64()
			return err
		}},
	)
	if err == nil {
		err = doc.End()
	}
	if err != nil {
		return Deployment{}, fmt.Errorf("%w: %w", ErrBadSchemeResponse, err)
	}
	switch {
	case scheme != nil:
		dep.Scheme = scheme
	case matrix != nil:
		dep.Scheme = matrix
	default:
		return Deployment{}, fmt.Errorf("%w: no scheme", ErrBadSchemeResponse)
	}
	if dep.Version == "" {
		if dep.Version, err = rr.SchemeVersion(dep.Scheme); err != nil {
			return Deployment{}, fmt.Errorf("rrapi: fingerprinting the scheme: %w", err)
		}
	}
	return dep, nil
}

// EstimateResponse is the body of GET /v1/estimate: the debiased frequency
// estimate with per-category confidence half-widths (the collector Summary
// over the wire), framing the estimator-error/report-count tradeoff for
// operators: Margin is the worst half-width now, and ReportsForMargin (when
// a ?margin= target was given) projects how many total reports shrink it to
// the target.
type EstimateResponse struct {
	Reports   int       `json:"reports"`
	Disguised []float64 `json:"disguised,omitempty"`
	Estimate  []float64 `json:"estimate"`
	HalfWidth []float64 `json:"half_width,omitempty"`
	Z         float64   `json:"z"`
	Margin    float64   `json:"margin"`
	// Categories names the original-domain categories Estimate covers, in
	// order. Dense mode leaves it empty (Estimate is the full domain);
	// sketch mode echoes the requested ?categories= point queries.
	Categories []int `json:"categories,omitempty"`
	// ReportsForMargin is the projected total report count needed to meet
	// the requested ?margin= target (0 when no target was requested).
	ReportsForMargin int `json:"reports_for_margin,omitempty"`
}

// HeavyHitter is one frequent category discovered by GET /v1/heavyhitters:
// its original-domain index and its debiased frequency estimate.
type HeavyHitter struct {
	Category int     `json:"category"`
	Estimate float64 `json:"estimate"`
}

// HeavyHittersResponse is the body of GET /v1/heavyhitters: the categories
// whose estimated frequency clears ?threshold=, sorted by estimate
// descending, capped at ?limit= when given.
type HeavyHittersResponse struct {
	Reports   int           `json:"reports"`
	Threshold float64       `json:"threshold"`
	Hits      []HeavyHitter `json:"hits"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
