package mining

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"optrr/internal/matrix"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

func mustWarner(t testing.TB, n int, p float64) *rr.Matrix {
	t.Helper()
	m, err := rr.Warner(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sampleJoint draws records from a known joint distribution over the given
// sizes.
func sampleJoint(t testing.TB, joint []float64, sizes []int, n int, r *randx.Source) [][]int {
	t.Helper()
	alias, err := randx.NewAlias(joint)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*rr.Matrix, len(sizes))
	for d, s := range sizes {
		ms[d] = rr.Identity(s)
	}
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = mr.Unindex(alias.Draw(r))
	}
	return out
}

func TestNewMultiRRValidates(t *testing.T) {
	if _, err := NewMultiRR(); !errors.Is(err, ErrSchema) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := NewMultiRR(nil); !errors.Is(err, ErrSchema) {
		t.Fatalf("nil matrix: err = %v", err)
	}
	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Attributes() != 2 || mr.JointSize() != 12 {
		t.Fatalf("attributes = %d, joint = %d", mr.Attributes(), mr.JointSize())
	}
	if s := mr.Sizes(); s[0] != 3 || s[1] != 4 {
		t.Fatalf("sizes = %v", s)
	}
}

func TestIndexUnindexRoundTrip(t *testing.T) {
	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.7), mustWarner(t, 2, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < mr.JointSize(); idx++ {
		rec := mr.Unindex(idx)
		back, err := mr.Index(rec)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Fatalf("round trip failed: %d -> %v -> %d", idx, rec, back)
		}
	}
	if _, err := mr.Index([]int{0, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("short record accepted")
	}
	if _, err := mr.Index([]int{0, 4, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("out-of-range record accepted")
	}
}

func TestDisguiseValidatesAndPreservesShape(t *testing.T) {
	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 2, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	records := [][]int{{0, 1}, {2, 0}, {1, 1}}
	out, err := mr.Disguise(records, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d records", len(out))
	}
	for _, rec := range out {
		if rec[0] < 0 || rec[0] >= 3 || rec[1] < 0 || rec[1] >= 2 {
			t.Fatalf("disguised record out of range: %v", rec)
		}
	}
	if _, err := mr.Disguise([][]int{{0, 5}}, randx.New(1)); !errors.Is(err, ErrSchema) {
		t.Fatal("bad record accepted")
	}
}

func TestEmpiricalJoint(t *testing.T) {
	mr, err := NewMultiRR(rr.Identity(2), rr.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	joint, err := mr.EmpiricalJoint([][]int{{0, 0}, {0, 1}, {1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0, 0.5}
	for i := range want {
		if math.Abs(joint[i]-want[i]) > 1e-12 {
			t.Fatalf("joint = %v, want %v", joint, want)
		}
	}
	if _, err := mr.EmpiricalJoint(nil); !errors.Is(err, ErrNoData) {
		t.Fatal("empty data accepted")
	}
}

// TestEstimateJointRecoversDistribution is the core multi-dimensional RR
// claim: disguising each axis independently and inverting per axis recovers
// the original joint distribution.
func TestEstimateJointRecoversDistribution(t *testing.T) {
	r := randx.New(5)
	sizes := []int{3, 4, 2}
	// A correlated joint: mass concentrated where attributes agree.
	joint := make([]float64, 24)
	var sum float64
	for i := range joint {
		joint[i] = r.Float64()
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	originals := sampleJoint(t, joint, sizes, 120000, r)

	mr, err := NewMultiRR(mustWarner(t, 3, 0.8), mustWarner(t, 4, 0.75), mustWarner(t, 2, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	disguised, err := mr.Disguise(originals, r)
	if err != nil {
		t.Fatal(err)
	}
	est, err := mr.EstimateJoint(disguised)
	if err != nil {
		t.Fatal(err)
	}
	for i := range joint {
		if math.Abs(est[i]-joint[i]) > 0.02 {
			t.Errorf("cell %d: estimate %v, want %v", i, est[i], joint[i])
		}
	}
}

func TestEstimateJointIdentityIsExact(t *testing.T) {
	mr, err := NewMultiRR(rr.Identity(2), rr.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	records := [][]int{{0, 0}, {1, 2}, {1, 2}, {0, 1}}
	est, err := mr.EstimateJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := mr.EmpiricalJoint(records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range est {
		if math.Abs(est[i]-emp[i]) > 1e-10 {
			t.Fatalf("identity estimate differs from empirical: %v vs %v", est, emp)
		}
	}
}

func TestEstimateJointSingularMatrix(t *testing.T) {
	mr, err := NewMultiRR(rr.TotallyRandom(3), rr.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.EstimateJoint([][]int{{0, 0}}); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("singular per-axis matrix: err = %v, want rr.ErrSingular", err)
	}
}

func TestMarginal(t *testing.T) {
	mr, err := NewMultiRR(rr.Identity(2), rr.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	// joint[a*3+b]
	joint := []float64{0.1, 0.2, 0.0, 0.3, 0.1, 0.3}
	m0, sizes0, err := mr.Marginal(joint, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if sizes0[0] != 2 || math.Abs(m0[0]-0.3) > 1e-12 || math.Abs(m0[1]-0.7) > 1e-12 {
		t.Fatalf("marginal over attr 0 = %v", m0)
	}
	m1, _, err := mr.Marginal(joint, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	want1 := []float64{0.4, 0.3, 0.3}
	for i := range want1 {
		if math.Abs(m1[i]-want1[i]) > 1e-12 {
			t.Fatalf("marginal over attr 1 = %v", m1)
		}
	}
	// keep both, transposed order.
	mBoth, sizesBoth, err := mr.Marginal(joint, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sizesBoth[0] != 3 || sizesBoth[1] != 2 {
		t.Fatalf("transposed sizes = %v", sizesBoth)
	}
	if math.Abs(mBoth[0*2+1]-joint[1*3+0]) > 1e-12 {
		t.Fatal("transposed marginal mismatch")
	}
	if _, _, err := mr.Marginal(joint, []int{0, 0}); !errors.Is(err, ErrSchema) {
		t.Fatal("duplicate keep accepted")
	}
	if _, _, err := mr.Marginal(joint[:3], []int{0}); !errors.Is(err, ErrSchema) {
		t.Fatal("short joint accepted")
	}
}

// TestPropertyJointInversionRoundTrip: feeding the exact disguised joint
// distribution (M applied analytically) through the factored inverse returns
// the original joint.
func TestPropertyJointInversionRoundTrip(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		r := randx.New(seed)
		na := int(aRaw%3) + 2
		nb := int(bRaw%3) + 2
		ma := mustWarner(t, na, 0.6+0.3*r.Float64())
		mb := mustWarner(t, nb, 0.6+0.3*r.Float64())
		joint := make([]float64, na*nb)
		var sum float64
		for i := range joint {
			joint[i] = r.Float64() + 0.01
			sum += joint[i]
		}
		for i := range joint {
			joint[i] /= sum
		}
		// Disguised joint = (Ma ⊗ Mb)·joint, computed cell by cell.
		disguisedJoint := make([]float64, na*nb)
		for yi := 0; yi < na; yi++ {
			for yj := 0; yj < nb; yj++ {
				var s float64
				for xi := 0; xi < na; xi++ {
					for xj := 0; xj < nb; xj++ {
						s += ma.Theta(yi, xi) * mb.Theta(yj, xj) * joint[xi*nb+xj]
					}
				}
				disguisedJoint[yi*nb+yj] = s
			}
		}
		est, err := rr.TupleEstimateFromDistribution([]*rr.Matrix{ma, mb}, disguisedJoint)
		if err != nil {
			return false
		}
		for i := range joint {
			if math.Abs(est[i]-joint[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refInvertAxes is the per-axis LU estimator MultiRR used before it moved
// onto rr's factored Kronecker inverse, kept verbatim as the reference the
// equivalence property checks against: it applies M_d⁻¹ fiber by fiber along
// every axis of the flattened joint table.
func refInvertAxes(ms []*rr.Matrix, joint []float64) ([]float64, error) {
	out := make([]float64, len(joint))
	copy(out, joint)
	strides := make([]int, len(ms))
	stride := 1
	for d := len(ms) - 1; d >= 0; d-- {
		strides[d] = stride
		stride *= ms[d].N()
	}
	for d, m := range ms {
		lu, err := matrix.Factorize(m.Dense())
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		size := m.N()
		st := strides[d]
		block := st * size
		fiber := make([]float64, size)
		for base := 0; base < len(joint); base += block {
			for off := 0; off < st; off++ {
				start := base + off
				for i := 0; i < size; i++ {
					fiber[i] = out[start+i*st]
				}
				solved, err := lu.SolveVec(fiber)
				if err != nil {
					return nil, fmt.Errorf("attribute %d: %w", d, err)
				}
				for i := 0; i < size; i++ {
					out[start+i*st] = solved[i]
				}
			}
		}
	}
	return out, nil
}

// randomStochastic draws one invertible n×n RR matrix: Warner,
// uniform-perturbation, or a random column-stochastic matrix whose diagonal
// holds more than half of every column (so it is diagonally dominant).
func randomStochastic(t *testing.T, n int, r *randx.Source) *rr.Matrix {
	t.Helper()
	var (
		m   *rr.Matrix
		err error
	)
	switch r.Intn(3) {
	case 0:
		m, err = rr.Warner(n, 0.6+0.35*r.Float64())
	case 1:
		m, err = rr.UniformPerturbation(n, 0.3+0.6*r.Float64())
	default:
		cols := make([][]float64, n)
		for i := range cols {
			col := make([]float64, n)
			var off float64
			for j := range col {
				if j != i {
					col[j] = r.Float64()
					off += col[j]
				}
			}
			diag := 0.55 + 0.4*r.Float64()
			for j := range col {
				if j != i {
					col[j] *= (1 - diag) / off
				}
			}
			col[i] = diag
			cols[i] = col
		}
		m, err = rr.FromColumns(cols)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPropertyEstimateMatchesPerAxisLU pins the move onto rr's factored
// inverse: on random schemas of 1–4 attributes with 2–6 categories each,
// EstimateJoint and the axis-subset estimator (1–3 attributes in any order)
// agree with the old per-axis LU estimator within 1e-12.
func TestPropertyEstimateMatchesPerAxisLU(t *testing.T) {
	const tol = 1e-12
	f := func(seed uint64) bool {
		r := randx.New(seed)
		attrs := 1 + r.Intn(4)
		ms := make([]*rr.Matrix, attrs)
		for d := range ms {
			ms[d] = randomStochastic(t, 2+r.Intn(5), r)
		}
		mr, err := NewMultiRR(ms...)
		if err != nil {
			t.Fatal(err)
		}
		records := make([][]int, 1+r.Intn(2000))
		for k := range records {
			rec := make([]int, attrs)
			for d, m := range ms {
				rec[d] = r.Intn(m.N())
			}
			records[k] = rec
		}
		agree := func(axes []int, got []float64) bool {
			sub := make([]*rr.Matrix, len(axes))
			proj := make([][]int, len(records))
			for i, d := range axes {
				sub[i] = ms[d]
			}
			for k, rec := range records {
				row := make([]int, len(axes))
				for i, d := range axes {
					row[i] = rec[d]
				}
				proj[k] = row
			}
			subRR, err := NewMultiRR(sub...)
			if err != nil {
				t.Fatal(err)
			}
			emp, err := subRR.EmpiricalJoint(proj)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refInvertAxes(sub, emp)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Logf("seed %d axes %v: %d cells, want %d", seed, axes, len(got), len(want))
				return false
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol {
					t.Logf("seed %d axes %v cell %d: %v, want %v", seed, axes, i, got[i], want[i])
					return false
				}
			}
			return true
		}
		all := make([]int, attrs)
		for d := range all {
			all[d] = d
		}
		est, err := mr.EstimateJoint(records)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(all, est) {
			return false
		}
		for k := 1; k <= 3 && k <= attrs; k++ {
			perm := r.Perm(attrs)
			axes := perm[:k]
			got, err := mr.estimateAxes(records, axes)
			if err != nil {
				t.Fatal(err)
			}
			if !agree(axes, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// goldenDisguiseSchema is the schema the Disguise golden and the parallel
// test run on: three attributes under Warner, uniform-perturbation and Warner
// matrices, built fresh so their sampler caches start empty.
func goldenDisguiseSchema(t *testing.T) *MultiRR {
	t.Helper()
	up, err := rr.UniformPerturbation(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMultiRR(mustWarner(t, 3, 0.7), up, mustWarner(t, 2, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func goldenDisguiseRecords() [][]int {
	records := make([][]int, 16)
	for i := range records {
		records[i] = []int{i % 3, (i / 3) % 4, (i / 12) % 2}
	}
	return records
}

// TestMultiRRDisguiseGolden pins one seed's Disguise output exactly: the
// draws are record-major (every attribute of record k before record k+1),
// one alias draw per attribute.
func TestMultiRRDisguiseGolden(t *testing.T) {
	got, err := goldenDisguiseSchema(t).Disguise(goldenDisguiseRecords(), randx.New(17))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 1}, {0, 1, 0}, {1, 0, 1}, {2, 2, 1}, {0, 3, 0}, {1, 1, 0},
		{2, 2, 1}, {0, 3, 0}, {1, 0, 0}, {0, 1, 1}, {0, 0, 0}, {1, 0, 1}, {2, 3, 1}, {2, 1, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Disguise(seed 17) = %v\nwant %v", got, want)
	}
}

// TestMultiRRDisguiseParallel shares one fresh MultiRR — and so its matrices'
// lazily built sampler tables — across goroutines, each with its own seeded
// source; every output must equal the serial run on an identical schema.
func TestMultiRRDisguiseParallel(t *testing.T) {
	const workers = 8
	records := goldenDisguiseRecords()
	serial := goldenDisguiseSchema(t)
	want := make([][][]int, workers)
	for g := range want {
		out, err := serial.Disguise(records, randx.New(uint64(100+g)))
		if err != nil {
			t.Fatal(err)
		}
		want[g] = out
	}
	shared := goldenDisguiseSchema(t)
	got := make([][][]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = shared.Disguise(records, randx.New(uint64(100+g)))
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("worker %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("worker %d: %v, want %v", g, got[g], want[g])
		}
	}
}

// TestWideSchema: 64 binary attributes have 2^64 joint cells, which overflows
// int. The schema is still accepted — small-subset estimates work — but every
// full-joint path reports ErrSchema instead of indexing a wrapped size.
func TestWideSchema(t *testing.T) {
	const attrs = 64
	ms := make([]*rr.Matrix, attrs)
	for d := range ms {
		ms[d] = mustWarner(t, 2, 0.8)
	}
	mr, err := NewMultiRR(ms...)
	if err != nil {
		t.Fatalf("wide schema rejected: %v", err)
	}
	if mr.JointSize() != 0 {
		t.Fatalf("JointSize = %d, want 0 for an overflowing schema", mr.JointSize())
	}
	records := [][]int{make([]int, attrs), make([]int, attrs)}
	records[1][5] = 1
	if _, err := mr.EmpiricalJoint(records); !errors.Is(err, ErrSchema) {
		t.Fatalf("EmpiricalJoint: err = %v, want ErrSchema", err)
	}
	if _, err := mr.EstimateJoint(records); !errors.Is(err, ErrSchema) {
		t.Fatalf("EstimateJoint: err = %v, want ErrSchema", err)
	}
	if _, _, err := mr.Marginal(nil, []int{0}); !errors.Is(err, ErrSchema) {
		t.Fatalf("Marginal: err = %v, want ErrSchema", err)
	}
	if _, err := BuildTree(mr, nil, 0, TreeConfig{}); !errors.Is(err, ErrSchema) {
		t.Fatalf("BuildTree: err = %v, want ErrSchema", err)
	}
	est, err := mr.estimateAxes(records, []int{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 4 {
		t.Fatalf("pair estimate has %d cells, want 4", len(est))
	}
}

func BenchmarkEstimateJoint3Attrs(b *testing.B) {
	r := randx.New(1)
	mr, err := NewMultiRR(mustWarner(b, 4, 0.8), mustWarner(b, 4, 0.8), mustWarner(b, 4, 0.8))
	if err != nil {
		b.Fatal(err)
	}
	records := make([][]int, 10000)
	for i := range records {
		records[i] = []int{r.Intn(4), r.Intn(4), r.Intn(4)}
	}
	disguised, err := mr.Disguise(records, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mr.EstimateJoint(disguised); err != nil {
			b.Fatal(err)
		}
	}
}
