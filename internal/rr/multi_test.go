package rr

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"optrr/internal/par"
	"optrr/internal/randx"
)

// tupleRecords draws multi-attribute records with categories in range.
func tupleRecords(sizes []int, total int, seed uint64) [][]int {
	r := randx.New(seed)
	recs := make([][]int, total)
	for k := range recs {
		rec := make([]int, len(sizes))
		for d, n := range sizes {
			rec[d] = r.Intn(n)
		}
		recs[k] = rec
	}
	return recs
}

// mustTuple builds a Warner matrix per attribute size.
func mustTuple(t *testing.T, sizes []int, p float64) []*Matrix {
	t.Helper()
	ms := make([]*Matrix, len(sizes))
	for d, n := range sizes {
		m, err := Warner(n, p)
		if err != nil {
			t.Fatal(err)
		}
		ms[d] = m
	}
	return ms
}

// TestTupleDisguiseBatchDeterministicAcrossWorkers is the tuple kernel's
// contract: output depends only on (ms, records, seed), never on worker
// count, including totals straddling chunk boundaries.
func TestTupleDisguiseBatchDeterministicAcrossWorkers(t *testing.T) {
	sizes := []int{3, 5, 2}
	ms := mustTuple(t, sizes, 0.7)
	for _, total := range []int{1, par.Chunk - 1, par.Chunk + 1} {
		recs := tupleRecords(sizes, total, uint64(total))
		want, err := TupleDisguiseBatch(ms, recs, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
			got, err := TupleDisguiseBatch(ms, recs, 42, w)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				for d := range want[k] {
					if got[k][d] != want[k][d] {
						t.Fatalf("total=%d workers=%d: record %d attr %d = %d, want %d",
							total, w, k, d, got[k][d], want[k][d])
					}
				}
			}
		}
	}
}

// TestTupleDisguiseBatchMatchesColumnwise pins the construction: attribute d
// of the tuple output equals a 1-D DisguiseBatch of column d under the d-th
// derived seed, so the tuple kernel adds no randomness of its own.
func TestTupleDisguiseBatchMatchesColumnwise(t *testing.T) {
	sizes := []int{4, 3}
	ms := mustTuple(t, sizes, 0.65)
	recs := tupleRecords(sizes, 1000, 3)
	got, err := TupleDisguiseBatch(ms, recs, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	seeds := tupleSeeds(99, len(sizes))
	for d, m := range ms {
		col := make([]int, len(recs))
		for k, rec := range recs {
			col[k] = rec[d]
		}
		want, err := m.DisguiseBatch(col, seeds[d], 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k][d] != want[k] {
				t.Fatalf("attr %d record %d = %d, want columnwise %d", d, k, got[k][d], want[k])
			}
		}
	}
}

// TestTupleSeedsDistinct guards the per-attribute seed derivation against
// the symmetric (attribute, chunk) collision that StreamSeed reuse would
// reintroduce: sequential draws must all differ.
func TestTupleSeedsDistinct(t *testing.T) {
	seeds := tupleSeeds(7, 8)
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	again := tupleSeeds(7, 8)
	for d := range seeds {
		if again[d] != seeds[d] {
			t.Fatalf("seed derivation not deterministic at %d", d)
		}
	}
}

// TestTupleEstimateJointRecovers is the statistical round trip: disguise a
// large batch drawn from a known joint, estimate with the factored
// inversion, and land near the truth.
func TestTupleEstimateJointRecovers(t *testing.T) {
	sizes := []int{3, 4}
	ms := mustTuple(t, sizes, 0.75)
	cells := 12
	joint := make([]float64, cells)
	r := randx.New(17)
	sum := 0.0
	for i := range joint {
		joint[i] = 0.2 + r.Float64()
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	const total = 400000
	recs := make([][]int, total)
	for k := range recs {
		u := r.Float64()
		idx := 0
		for acc := 0.0; idx < cells-1; idx++ {
			acc += joint[idx]
			if u < acc {
				break
			}
		}
		recs[k] = []int{idx / sizes[1], idx % sizes[1]}
	}
	disguised, err := TupleDisguiseBatch(ms, recs, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	est, err := TupleEstimateJoint(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != cells {
		t.Fatalf("estimate has %d cells, want %d", len(est), cells)
	}
	esum := 0.0
	for i := range est {
		if math.Abs(est[i]-joint[i]) > 0.02 {
			t.Fatalf("cell %d: estimate %.4f, truth %.4f", i, est[i], joint[i])
		}
		esum += est[i]
	}
	if math.Abs(esum-1) > 1e-9 {
		t.Fatalf("estimate sums to %v", esum)
	}
}

// TestTupleEstimateJointIdentity pins the estimator with identity matrices:
// the estimate must equal the empirical joint of the input exactly.
func TestTupleEstimateJointIdentity(t *testing.T) {
	ms := []*Matrix{Identity(2), Identity(3)}
	recs := [][]int{{0, 0}, {0, 2}, {1, 1}, {1, 1}}
	est, err := TupleEstimateJoint(ms, recs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0, 0.25, 0, 0.5, 0}
	for i := range want {
		if est[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, est[i], want[i])
		}
	}
}

// TestTupleErrors walks the validation surface of both tuple entry points.
func TestTupleErrors(t *testing.T) {
	ms := mustTuple(t, []int{3, 2}, 0.7)
	if _, err := TupleDisguiseBatch(nil, [][]int{{0}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("empty tuple: %v", err)
	}
	if _, err := TupleDisguiseBatch([]*Matrix{ms[0], nil}, [][]int{{0, 0}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("nil matrix: %v", err)
	}
	if _, err := TupleDisguiseBatch(ms, [][]int{{0}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short record: %v", err)
	}
	if _, err := TupleDisguiseBatch(ms, [][]int{{0, 5}}, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-range category: %v", err)
	}
	dst := [][]int{{0, 0}, {0, 0}}
	if err := TupleDisguiseBatchInto(dst, [][]int{{0, 0}}, ms, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("row mismatch: %v", err)
	}
	if err := TupleDisguiseBatchInto([][]int{{0}}, [][]int{{0, 0}}, ms, 1, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short dst row: %v", err)
	}
	if _, err := TupleEstimateJoint(ms, nil); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("empty data: %v", err)
	}
	if _, err := TupleEstimateJoint(ms, [][]int{{0, 3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("estimate out-of-range: %v", err)
	}
	if _, err := TupleEstimateJoint([]*Matrix{ms[0], TotallyRandom(2)}, [][]int{{0, 0}}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular factor: %v", err)
	}
	if _, err := TupleEstimateFromDistribution(ms, make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("short distribution: %v", err)
	}
	if _, err := TupleEstimateFromDistribution(nil, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("empty tuple: %v", err)
	}
}

// TestTupleEstimateWideTuple: 64 binary attributes have 2^64 joint cells,
// which overflows int; both estimators report ErrShape instead of indexing a
// wrapped size.
func TestTupleEstimateWideTuple(t *testing.T) {
	sizes := make([]int, 64)
	for d := range sizes {
		sizes[d] = 2
	}
	ms := mustTuple(t, sizes, 0.8)
	if _, err := TupleEstimateJoint(ms, tupleRecords(sizes, 3, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("TupleEstimateJoint: %v", err)
	}
	if _, err := TupleEstimateFromDistribution(ms, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("TupleEstimateFromDistribution: %v", err)
	}
}

// TestTupleEstimateFromDistributionMatchesJoint: TupleEstimateJoint is its
// empirical joint fed through TupleEstimateFromDistribution.
func TestTupleEstimateFromDistributionMatchesJoint(t *testing.T) {
	sizes := []int{3, 2, 4}
	ms := mustTuple(t, sizes, 0.7)
	recs := tupleRecords(sizes, 500, 9)
	pStar := make([]float64, 24)
	for _, rec := range recs {
		pStar[(rec[0]*2+rec[1])*4+rec[2]]++
	}
	for i := range pStar {
		pStar[i] /= float64(len(recs))
	}
	want, err := TupleEstimateJoint(ms, recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TupleEstimateFromDistribution(ms, pStar)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTupleDisguiseBatchEmpty mirrors DisguiseBatch: zero records is legal
// and yields an empty output.
func TestTupleDisguiseBatchEmpty(t *testing.T) {
	ms := mustTuple(t, []int{2, 2}, 0.8)
	got, err := TupleDisguiseBatch(ms, nil, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d rows", len(got))
	}
}
