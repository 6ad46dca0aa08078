package sketch

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// FuzzCMSRoundTrip drives the full hash→disguise→debias round trip under
// adversarial parameters. Constructor inputs are probed raw — invalid
// (hash_range, k, domain, ε) combinations must return errors, never panic —
// then folded into a valid range where the pipeline invariants must hold:
// every estimate finite, each row's debiased cell estimates summing to
// exactly zero mass above the 1/m collision floor, the full-domain
// estimates summing to ≈ 1, the full-domain scan agreeing bit for bit with
// one-category point queries, and Hash agreeing with a Div64 reference, also
// with coefficients and values next to the prime. The scheme must also
// survive a JSON round trip with its version fingerprint intact.
func FuzzCMSRoundTrip(f *testing.F) {
	f.Add(uint16(100), uint8(4), uint8(32), uint8(40), uint64(1), uint64(2))
	f.Add(uint16(2000), uint8(16), uint8(255), uint8(10), uint64(42), uint64(7))
	f.Add(uint16(0), uint8(0), uint8(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint16(65535), uint8(255), uint8(1), uint8(255), uint64(1<<63), uint64(3))
	f.Fuzz(func(t *testing.T, domainRaw uint16, hashesRaw, rangeRaw, epsRaw uint8, hashSeed, dataSeed uint64) {
		// Raw probe: whatever the bytes say, construction either succeeds or
		// fails cleanly.
		if s, err := NewKRR(int(domainRaw), int(hashesRaw), int(rangeRaw),
			float64(epsRaw)/8, hashSeed); err == nil {
			_ = s.ReportSpace()
		} else if !errors.Is(err, ErrBadParams) && !errors.Is(err, rr.ErrSingular) {
			t.Fatalf("constructor error is neither ErrBadParams nor ErrSingular: %v", err)
		}

		// Folded valid range: m ∈ [32, 160), k ∈ [6, 16], domain ∈ [m, 4m],
		// ε ∈ [2, 9) — a regime where the collision and inverse-amplified
		// sampling variance of the full-domain sum stay well inside the
		// asserted tolerance (at ε below ~2 the inner inverse amplifies
		// per-row noise past any usable sum bound; that regime is still
		// exercised for crash-freedom by the raw probe above).
		m := 32 + int(rangeRaw)%128
		k := 6 + int(hashesRaw)%11
		domain := m * (1 + int(domainRaw)%4)
		eps := 2 + float64(epsRaw%56)/8
		s, err := NewKRR(domain, k, m, eps, hashSeed)
		if err != nil {
			t.Fatalf("folded params (%d, %d, %d, %v) rejected: %v", domain, k, m, eps, err)
		}

		// Disguise a skewed record stream and aggregate the k×m grid.
		const total = 20000
		rng := randx.New(dataSeed)
		records := make([]int, total)
		for i := range records {
			// Half the mass on twenty heavy categories, the rest uniform:
			// exercises both collision-heavy and near-empty cells.
			if rng.Intn(2) == 0 {
				records[i] = rng.Intn(20)
			} else {
				records[i] = rng.Intn(domain)
			}
		}
		reports := make([]int, total)
		if err := s.DisguiseBatchInto(reports, records, dataSeed, 0); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, s.ReportSpace())
		for _, rep := range reports {
			if rep < 0 || rep >= len(counts) {
				t.Fatalf("report %d outside report space %d", rep, len(counts))
			}
			counts[rep]++
		}

		ests, bounds, err := s.EstimateWithBound(counts, nil, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for x, e := range ests {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("estimate[%d] = %v", x, e)
			}
			if math.IsNaN(bounds[x]) || math.IsInf(bounds[x], 0) || bounds[x] < 0 {
				t.Fatalf("bound[%d] = %v", x, bounds[x])
			}
			sum += e
		}
		if math.Abs(sum-1) > 0.75 {
			t.Fatalf("full-domain estimates sum to %v over (domain=%d, k=%d, m=%d, ε=%v)",
				sum, domain, k, m, eps)
		}

		// The full-domain scan steps the affine hash stage from category to
		// category; a point query hashes each category afresh. Both must give
		// every category the same estimate and bound, bit for bit — also with
		// coefficients next to the prime, where the stepped sum wraps at
		// nearly every step (row 0), and where it lands exactly on the prime
		// at category 1 (row 1). There Hash must also keep matching the Div64
		// reference, for values up to the prime.
		fullMatchesPoint(t, s, counts, ests, bounds)
		edge := *s
		edge.a = append([]uint64(nil), s.a...)
		edge.b = append([]uint64(nil), s.b...)
		edge.a[0] = hashPrime - 1 - hashSeed%8
		edge.b[0] = hashPrime - 1 - dataSeed%8
		edge.a[1] = 1 + hashSeed>>61
		edge.b[1] = hashPrime - edge.a[1]
		for _, x := range []uint64{0, 1, uint64(domain) - 1, 1 << 60, hashPrime - 2 - dataSeed%8, hashPrime - 2} {
			for j := 0; j < 2; j++ {
				if got, want := edge.Hash(j, int(x)), refHash(edge.a[j], edge.b[j], m, x); got != want {
					t.Fatalf("Hash(%d, %d) = %d with a=%d b=%d, want %d", j, x, got, edge.a[j], edge.b[j], want)
				}
			}
		}
		edgeEsts, edgeBounds, err := edge.EstimateWithBound(counts, nil, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		fullMatchesPoint(t, &edge, counts, edgeEsts, edgeBounds)

		// JSON round trip preserves the scheme identity.
		data, err := rr.MarshalScheme(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := rr.UnmarshalScheme(data)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := rr.SchemeVersion(s)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := rr.SchemeVersion(back)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Fatalf("JSON round trip changed version %q -> %q", v1, v2)
		}
	})
}

// fullMatchesPoint checks a full-domain EstimateWithBound(counts, nil, 3, 1)
// result against one-category point queries, bit for bit, and each domain
// category's Hash against the Div64 reference.
func fullMatchesPoint(t *testing.T, s *CMSScheme, counts []int, ests, bounds []float64) {
	t.Helper()
	for x := range ests {
		for j := 0; j < s.Hashes(); j++ {
			if got, want := s.Hash(j, x), refHash(s.a[j], s.b[j], s.rangeM, uint64(x)); got != want {
				t.Fatalf("Hash(%d, %d) = %d, want %d", j, x, got, want)
			}
		}
		e, b, err := s.EstimateWithBound(counts, []int{x}, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(e[0]) != math.Float64bits(ests[x]) || math.Float64bits(b[0]) != math.Float64bits(bounds[x]) {
			t.Fatalf("category %d: point query %v ± %v, full domain %v ± %v", x, e[0], b[0], ests[x], bounds[x])
		}
	}
}

// FuzzUnmarshalScheme drives the kind-tagged envelope decoder with both
// kinds registered: every input either fails with an error wrapping
// rr.ErrBadScheme, or decodes to the scheme encoding/json reads from it
// (oracleScheme: the same kind, version and entries bit for bit), whose
// envelope decodes again to the same version and is, like its MarshalJSON
// payload, byte for byte the nested json.Marshal composition
// (nestedEnvelope).
func FuzzUnmarshalScheme(f *testing.F) {
	dense, err := rr.Warner(4, 0.7)
	if err != nil {
		f.Fatal(err)
	}
	cms, err := NewKRR(64, 4, 8, 2, 9)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []rr.Scheme{dense, cms} {
		env, err := rr.MarshalScheme(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(env[:len(env)/2])
	}
	f.Add([]byte(`{"kind":"nope","scheme":{}}`))
	f.Add([]byte(`{"kind":"","scheme":{}}`))
	for _, data := range envelopeShapes(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := rr.UnmarshalScheme(data)
		if err != nil {
			if !errors.Is(err, rr.ErrBadScheme) {
				t.Fatalf("error does not wrap ErrBadScheme: %v", err)
			}
			return
		}
		want, err := oracleScheme(data)
		if err != nil {
			t.Fatalf("decoded an envelope encoding/json rejects (%v): %q", err, data)
		}
		sameScheme(t, s, want)
		env, err := rr.MarshalScheme(s)
		if err != nil {
			t.Fatalf("decoded %s scheme does not marshal: %v", s.Kind(), err)
		}
		checkEncoding(t, s)
		back, err := rr.UnmarshalScheme(env)
		if err != nil {
			t.Fatalf("re-marshalled %s envelope rejected: %v", s.Kind(), err)
		}
		v, err := rr.SchemeVersion(back)
		if err != nil {
			t.Fatal(err)
		}
		if want := rr.EnvelopeVersion(env); v != want {
			t.Fatalf("%s round trip changed version %q -> %q", s.Kind(), want, v)
		}
	})
}
