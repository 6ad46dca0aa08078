package rr

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"optrr/internal/par"
	"optrr/internal/randx"
)

// batchRecords draws a record vector with every category represented.
func batchRecords(n, total int, seed uint64) []int {
	r := randx.New(seed)
	recs := make([]int, total)
	for i := range recs {
		recs[i] = r.Intn(n)
	}
	return recs
}

// TestDisguiseBatchDeterministicAcrossWorkers is the batch kernel's
// contract: the disguised output depends only on (M, records, seed), never
// on the worker count, including record counts straddling chunk boundaries.
func TestDisguiseBatchDeterministicAcrossWorkers(t *testing.T) {
	m, err := Warner(5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int{1, par.Chunk - 1, par.Chunk, par.Chunk + 1, 3*par.Chunk + 77} {
		recs := batchRecords(5, total, uint64(total))
		want, err := m.DisguiseBatch(recs, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
			got, err := m.DisguiseBatch(recs, 42, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("total=%d workers=%d: record %d = %d, want %d", total, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDisguiseBatchChunkBoundaryProperty is the exhaustive form of the
// worker-independence contract around chunk boundaries: for a sweep of
// record counts that are deliberately NOT multiples of the 8192-record chunk
// (one below, one above, mid-chunk offsets, a sub-chunk batch), the parallel
// output must equal the serial output at every worker count from 1 through
// well past GOMAXPROCS. Derived totals are seeded per-total so each case is
// a distinct record vector.
func TestDisguiseBatchChunkBoundaryProperty(t *testing.T) {
	m, err := FRAPP(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	totals := []int{
		1, 17, par.Chunk / 2,
		par.Chunk - 1, par.Chunk + 1,
		2*par.Chunk - 1, 2*par.Chunk + 1,
		2*par.Chunk + par.Chunk/3,
		5*par.Chunk - 123,
	}
	maxWorkers := runtime.GOMAXPROCS(0) + 3
	if maxWorkers < 9 {
		maxWorkers = 9
	}
	for _, total := range totals {
		if total%par.Chunk == 0 {
			t.Fatalf("test bug: total %d is a chunk multiple", total)
		}
		recs := batchRecords(7, total, 1000+uint64(total))
		want, err := m.DisguiseBatch(recs, 77, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, total)
		for w := 1; w <= maxWorkers; w++ {
			if err := m.DisguiseBatchInto(got, recs, 77, w); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("total=%d workers=%d: record %d = %d, want serial %d", total, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDisguiseBatchDistribution checks the statistics: disguising a large
// batch lands near the implied disguised distribution M·P.
func TestDisguiseBatchDistribution(t *testing.T) {
	m, err := Warner(4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200000
	recs := batchRecords(4, total, 9)
	got, err := m.DisguiseBatch(recs, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	prior := make([]float64, 4)
	for _, rec := range recs {
		prior[rec] += 1.0 / total
	}
	want, err := m.DisguisedDistribution(prior)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	for _, v := range got {
		counts[v] += 1.0 / total
	}
	for i := range want {
		if math.Abs(counts[i]-want[i]) > 0.01 {
			t.Errorf("category %d frequency %.4f, want %.4f ± 0.01", i, counts[i], want[i])
		}
	}
}

// TestDisguiseBatchErrors pins the failure modes to Disguise's: shape
// mismatches and the first out-of-range record, in serial and parallel.
func TestDisguiseBatchErrors(t *testing.T) {
	m, err := Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DisguiseBatchInto(make([]int, 2), []int{0, 1, 2}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("length mismatch error = %v, want ErrShape", err)
	}
	// The bad record sits in the second chunk; every worker count must
	// report that exact record, matching the serial Disguise message.
	recs := batchRecords(3, 2*par.Chunk, 3)
	bad := par.Chunk + 17
	recs[bad] = 9
	recs[bad+100] = -1
	wantMsg := "record 8209 has category 9"
	for _, w := range []int{1, 4} {
		err := m.DisguiseBatchInto(make([]int, len(recs)), recs, 1, w)
		if !errors.Is(err, ErrShape) {
			t.Fatalf("workers=%d: out-of-range error = %v, want ErrShape", w, err)
		}
		if !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("workers=%d: error %q does not name the first bad record (%s)", w, err, wantMsg)
		}
	}
}

// TestDisguiseBatchEmpty: zero records disguise to zero records.
func TestDisguiseBatchEmpty(t *testing.T) {
	m, err := Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.DisguiseBatch(nil, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("disguised %d records from none", len(out))
	}
}

// TestDisguiseBatchIdentity: the identity matrix must pass records through
// unchanged on every path.
func TestDisguiseBatchIdentity(t *testing.T) {
	m := Identity(6)
	recs := batchRecords(6, par.Chunk+33, 5)
	got, err := m.DisguiseBatch(recs, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if got[i] != rec {
			t.Fatalf("identity disguise changed record %d: %d -> %d", i, rec, got[i])
		}
	}
}
