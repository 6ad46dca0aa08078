package optrr_test

import (
	"testing"

	"optrr"
	"optrr/internal/randx"
)

// TestSketchPublicSurface drives the exported sketch API end to end: scheme
// construction, local disguising, collection, snapshot round trip, and
// heavy-hitter discovery — the large-domain workflow a library user follows.
func TestSketchPublicSurface(t *testing.T) {
	scheme, err := optrr.NewSketchSchemeKRR(30000, 12, 128, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := optrr.SchemeVersion(scheme); err != nil || v == "" {
		t.Fatalf("SchemeVersion = %q, %v", v, err)
	}

	rng := randx.New(4)
	records := make([]int, 100000)
	for i := range records {
		if rng.Intn(3) != 0 {
			records[i] = rng.Intn(3) // two thirds of mass on 3 heavy categories
		} else {
			records[i] = rng.Intn(30000)
		}
	}
	reports := make([]int, len(records))
	if err := scheme.DisguiseBatchInto(reports, records, 8, 0); err != nil {
		t.Fatal(err)
	}

	col := optrr.NewCollector(scheme, 0)
	if err := col.IngestBatch(reports); err != nil {
		t.Fatal(err)
	}
	hits, err := optrr.TopK(col, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, h := range hits {
		found[h.Category] = true
	}
	for x := 0; x < 3; x++ {
		if !found[x] {
			t.Fatalf("heavy category %d missing from top-3 %v", x, hits)
		}
	}

	// Snapshot round trip through the envelope codec.
	data, err := col.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := optrr.RestoreCollector(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != col.Count() {
		t.Fatalf("restored count %d, want %d", back.Count(), col.Count())
	}

	env, err := optrr.MarshalScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := optrr.UnmarshalScheme(env)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Kind() != scheme.Kind() || decoded.Domain() != scheme.Domain() {
		t.Fatalf("envelope round trip: kind %q domain %d", decoded.Kind(), decoded.Domain())
	}
}
