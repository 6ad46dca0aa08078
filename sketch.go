package optrr

import (
	"optrr/internal/mining"
	"optrr/internal/rr"
	"optrr/internal/sketch"
)

// This file re-exports the scheme abstraction and the count-mean-sketch
// layer: disguise schemes whose report space is decoupled from the domain
// size (a Collector over one keeps O(k·m) state), and heavy-hitter
// discovery over huge categorical domains.

// Scheme is a randomized-response disguise scheme: a domain, a report
// space, per-record and batch disguising, and debiased frequency
// estimation with the confidence bounds the scheme states for it
// (Reconstruct). *Matrix implements it (dense, report space = domain), as
// does the count-mean sketch (report space = hashes × hash range,
// independent of the domain).
type Scheme = rr.Scheme

// Reconstruction is what Scheme.Reconstruct returns: an estimate and the
// half-widths the scheme states for it.
type Reconstruction = rr.Reconstruction

// SketchScheme is the count-mean-sketch scheme: values hash into a small
// range, the hashed cell is disguised through an inner RR matrix, and
// frequency estimates are debiased for both the disguise and hash
// collisions.
type SketchScheme = sketch.CMSScheme

// FrequencyEstimator answers debiased per-category frequency queries; the
// Collector implements it.
type FrequencyEstimator = mining.FrequencyEstimator

// Frequent is one heavy hitter discovered by HeavyHitters, TopK or
// Collector.HeavyHitters.
type Frequent = mining.Frequent

// NewSketchScheme builds a count-mean-sketch scheme over the given domain:
// hashes pairwise-independent hash functions into hashRange cells, each
// disguised through the inner matrix (which must be hashRange×hashRange and
// invertible).
func NewSketchScheme(domain, hashes, hashRange int, inner *Matrix, hashSeed uint64) (*SketchScheme, error) {
	return sketch.New(domain, hashes, hashRange, inner, hashSeed)
}

// NewSketchSchemeKRR is NewSketchScheme with the closed-form ε-LDP k-RR
// inner matrix (constant diagonal at e^ε/(e^ε+hashRange−1)).
func NewSketchSchemeKRR(domain, hashes, hashRange int, epsilon float64, hashSeed uint64) (*SketchScheme, error) {
	return sketch.NewKRR(domain, hashes, hashRange, epsilon, hashSeed)
}

// HeavyHitters scans the estimator's domain in bounded chunks and returns
// every category whose estimated frequency is at least threshold, sorted by
// estimate descending.
func HeavyHitters(est FrequencyEstimator, threshold float64) ([]Frequent, error) {
	return mining.HeavyHitters(est, threshold)
}

// TopK returns the k categories with the largest estimated frequencies,
// sorted descending.
func TopK(est FrequencyEstimator, k int) ([]Frequent, error) {
	return mining.TopK(est, k)
}

// MarshalScheme wraps a scheme in its kind-tagged JSON envelope, the wire
// form servers and snapshots carry.
func MarshalScheme(s Scheme) ([]byte, error) { return rr.MarshalScheme(s) }

// UnmarshalScheme decodes a kind-tagged scheme envelope produced by
// MarshalScheme.
func UnmarshalScheme(data []byte) (Scheme, error) { return rr.UnmarshalScheme(data) }

// SchemeVersion returns a scheme's wire fingerprint: equal exactly when the
// envelopes are byte-identical. Servers use it as the /v1/scheme ETag and
// collectors refuse to merge across differing versions.
func SchemeVersion(s Scheme) (string, error) { return rr.SchemeVersion(s) }
