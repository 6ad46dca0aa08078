package matrix

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/randx"
)

// randomFactors returns well-conditioned random square factors of the given
// sizes: uniform [0,1) entries with a diagonal boost, so every factor (and
// hence the Kronecker product) is comfortably invertible.
func randomFactors(r *randx.Source, dims []int) []*Dense {
	out := make([]*Dense, len(dims))
	for d, n := range dims {
		f := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := r.Float64()
				if i == j {
					v += float64(n)
				}
				f.Set(i, j, v)
			}
		}
		out[d] = f
	}
	return out
}

func mustKron(t *testing.T, factors ...*Dense) *Kron {
	t.Helper()
	k, err := NewKron(factors...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKronValidates(t *testing.T) {
	if _, err := NewKron(); !errors.Is(err, ErrShape) {
		t.Fatalf("no factors: err = %v, want ErrShape", err)
	}
	if _, err := NewKron(New(2, 2), nil); !errors.Is(err, ErrShape) {
		t.Fatalf("nil factor: err = %v, want ErrShape", err)
	}
	if _, err := NewKron(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square factor: err = %v, want ErrShape", err)
	}
	k := mustKron(t, New(2, 2), New(3, 3), New(4, 4))
	if k.Size() != 24 {
		t.Fatalf("Size = %d, want 24", k.Size())
	}
	if got := k.Dims(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Dims = %v, want [2 3 4]", got)
	}
}

func TestKronDenseMatchesAt(t *testing.T) {
	r := randx.New(7)
	k := mustKron(t, randomFactors(r, []int{2, 3, 2})...)
	dense := k.Dense()
	if dense.Rows() != k.Size() || dense.Cols() != k.Size() {
		t.Fatalf("dense shape = %dx%d, want %d", dense.Rows(), dense.Cols(), k.Size())
	}
	for i := 0; i < k.Size(); i++ {
		for j := 0; j < k.Size(); j++ {
			if got, want := k.At(i, j), dense.At(i, j); math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("At(%d,%d) = %v, dense %v", i, j, got, want)
			}
		}
	}
}

// TestKronDenseOrdering pins the flattening convention: factor 0 varies
// slowest, so ⊗ of [[a]]-style 2×2 blocks places factor 0's entry as the
// block multiplier.
func TestKronDenseOrdering(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{0, 5}, {6, 7}})
	dense := mustKron(t, a, b).Dense()
	// Row 0 of A⊗B is [a00*b00 a00*b01 a01*b00 a01*b01] = [0 5 0 10].
	want := []float64{0, 5, 0, 10}
	for j, w := range want {
		if got := dense.At(0, j); got != w {
			t.Fatalf("dense[0][%d] = %v, want %v", j, got, w)
		}
	}
	if got := dense.At(3, 2); got != 4*6 {
		t.Fatalf("dense[3][2] = %v, want 24", got)
	}
}

func TestKronMulVecMatchesDense(t *testing.T) {
	r := randx.New(11)
	for _, dims := range [][]int{{2}, {3, 2}, {2, 3, 4}, {5, 5, 5}} {
		k := mustKron(t, randomFactors(r, dims)...)
		n := k.Size()
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Float64()
		}
		dst := make([]float64, n)
		tmp := make([]float64, n)
		if err := k.MulVecInto(dst, src, tmp); err != nil {
			t.Fatal(err)
		}
		want, err := k.Dense().MulVec(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if rel := math.Abs(dst[i]-want[i]) / math.Max(1, math.Abs(want[i])); rel > 1e-12 {
				t.Fatalf("dims %v: dst[%d] = %v, dense %v", dims, i, dst[i], want[i])
			}
		}
	}
}

func TestKronSumMaxMulVecMatchesDense(t *testing.T) {
	r := randx.New(13)
	for _, dims := range [][]int{{3}, {2, 2}, {3, 4, 2}} {
		k := mustKron(t, randomFactors(r, dims)...)
		n := k.Size()
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Float64()
		}
		sum, rowMax := make([]float64, n), make([]float64, n)
		if err := k.SumMaxMulVecInto(sum, rowMax, src, make([]float64, n), make([]float64, n)); err != nil {
			t.Fatal(err)
		}
		dense := k.Dense()
		wantSum, err := dense.MulVec(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				if v := dense.At(i, j) * src[j]; v > want {
					want = v
				}
			}
			if rel := math.Abs(rowMax[i]-want) / math.Max(1, want); rel > 1e-12 {
				t.Fatalf("dims %v: rowMax[%d] = %v, want %v", dims, i, rowMax[i], want)
			}
			if rel := math.Abs(sum[i]-wantSum[i]) / math.Max(1, math.Abs(wantSum[i])); rel > 1e-12 {
				t.Fatalf("dims %v: sum[%d] = %v, dense %v", dims, i, sum[i], wantSum[i])
			}
		}
	}
}

func TestKronMulVecChecksLengths(t *testing.T) {
	k := mustKron(t, New(2, 2), New(2, 2))
	buf := make([]float64, 4)
	if err := k.MulVecInto(buf, make([]float64, 3), buf[:4:4]); !errors.Is(err, ErrShape) {
		t.Fatalf("short src: err = %v, want ErrShape", err)
	}
	if err := k.MulVecInto(make([]float64, 3), buf, buf); !errors.Is(err, ErrShape) {
		t.Fatalf("short dst: err = %v, want ErrShape", err)
	}
	if err := k.MulVecInto(buf, buf, make([]float64, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("short tmp: err = %v, want ErrShape", err)
	}
	if err := k.SumMaxMulVecInto(buf, make([]float64, 3), buf, buf, buf); !errors.Is(err, ErrShape) {
		t.Fatalf("short rowMax: err = %v, want ErrShape", err)
	}
	if err := k.SumMaxMulVecInto(buf, buf, buf, buf, make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("long maxTmp: err = %v, want ErrShape", err)
	}
}

func TestKronInverseMatchesDense(t *testing.T) {
	r := randx.New(17)
	dims := []int{3, 2, 4}
	k := mustKron(t, randomFactors(r, dims)...)
	inv := KronZeros(dims)
	if err := k.InverseInto(inv, NewLU()); err != nil {
		t.Fatal(err)
	}
	want, err := k.Dense().Inverse()
	if err != nil {
		t.Fatal(err)
	}
	got := inv.Dense()
	n := k.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > 1e-10 {
				t.Fatalf("inv[%d][%d] = %v, dense %v (diff %v)", i, j, got.At(i, j), want.At(i, j), d)
			}
		}
	}
	// A nil LU workspace is allowed.
	if err := k.InverseInto(inv, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKronInverseSingularFactor(t *testing.T) {
	good := mustFromRows(t, [][]float64{{2, 0}, {0, 2}})
	bad := mustFromRows(t, [][]float64{{1, 1}, {1, 1}})
	k := mustKron(t, good, bad)
	if err := k.InverseInto(KronZeros([]int{2, 2}), NewLU()); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if err := k.InverseInto(KronZeros([]int{2, 3}), NewLU()); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched dst: err = %v, want ErrShape", err)
	}
}

func TestKronSquareInto(t *testing.T) {
	r := randx.New(19)
	dims := []int{2, 3}
	k := mustKron(t, randomFactors(r, dims)...)
	sq := KronZeros(dims)
	if err := k.SquareInto(sq); err != nil {
		t.Fatal(err)
	}
	n := k.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := k.At(i, j)
			if got := sq.At(i, j); math.Abs(got-v*v) > 1e-12*math.Max(1, v*v) {
				t.Fatalf("sq[%d][%d] = %v, want %v", i, j, got, v*v)
			}
		}
	}
}

func TestKronReset(t *testing.T) {
	r := randx.New(29)
	k := mustKron(t, randomFactors(r, []int{2, 2})...)
	if err := k.Reset(randomFactors(r, []int{3, 5})); err != nil {
		t.Fatal(err)
	}
	if k.Size() != 15 {
		t.Fatalf("Size after Reset = %d, want 15", k.Size())
	}
	src := make([]float64, 15)
	for i := range src {
		src[i] = r.Float64()
	}
	dst := make([]float64, 15)
	tmp := make([]float64, 15)
	if err := k.MulVecInto(dst, src, tmp); err != nil {
		t.Fatal(err)
	}
	want, err := k.Dense().MulVec(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-10*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("after Reset dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// Dense materializes the full N×N matrix: the oracle the factored operations
// are tested against.
func (k *Kron) Dense() *Dense {
	cur := []float64{1}
	curN := 1
	for _, f := range k.factors {
		n := f.rows
		nxtN := curN * n
		nxt := make([]float64, nxtN*nxtN)
		for a := 0; a < curN; a++ {
			for b := 0; b < curN; b++ {
				v := cur[a*curN+b]
				if v == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					for p := 0; p < n; p++ {
						nxt[(a*n+i)*nxtN+(b*n+p)] = v * f.data[i*n+p]
					}
				}
			}
		}
		cur = nxt
		curN = nxtN
	}
	return &Dense{rows: curN, cols: curN, data: cur}
}

// contractOracle is the contraction every Kron product ran before the
// stride-1 and fused kernels: each mode runs contractMode, over the sum or
// the (max, ×) semiring, ping-ponging between dst and tmp so that the last
// mode lands in dst. MulVecInto and SumMaxMulVecInto must match it bit for
// bit.
func contractOracle(k *Kron, dst, src, tmp []float64, maxMode bool) {
	nd := len(k.factors)
	cur := src
	a, b := dst, tmp
	if nd%2 == 0 {
		a, b = tmp, dst
	}
	inner := k.size
	for d := 0; d < nd; d++ {
		n := k.dims[d]
		inner /= n
		out := a
		if d%2 == 1 {
			out = b
		}
		contractMode(out, cur, k.factors[d], k.size, n, inner, maxMode)
		cur = out
	}
}

// contractMode applies an n×n factor along one axis of a flat tensor of
// total length size with the given inner stride (product of the sizes of the
// faster-varying axes). With maxMode, sums become maxima; the accumulator
// starts at 0, which is only correct because all terms are non-negative.
func contractMode(dst, src []float64, f *Dense, size, n, inner int, maxMode bool) {
	block := n * inner
	for base := 0; base < size; base += block {
		for j := 0; j < n; j++ {
			row := f.data[j*n : (j+1)*n]
			out := dst[base+j*inner : base+(j+1)*inner]
			for r := range out {
				out[r] = 0
			}
			for i, a := range row {
				if a == 0 {
					continue
				}
				in := src[base+i*inner : base+(i+1)*inner]
				if maxMode {
					for r, v := range in {
						if p := a * v; p > out[r] {
							out[r] = p
						}
					}
				} else {
					for r, v := range in {
						out[r] += a * v
					}
				}
			}
		}
	}
}

// checkContractMatchesOracle compares MulVecInto (on the signed factors and
// src) and SumMaxMulVecInto (on their absolute values, the max chain's
// domain) with contractOracle by float bits.
func checkContractMatchesOracle(t *testing.T, dims []int, factors []*Dense, src []float64) {
	t.Helper()
	k := mustKron(t, factors...)
	n := k.Size()
	vec := func() []float64 { return make([]float64, n) }
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("dims %v: %s[%d] = %v (%#x), oracle %v (%#x)",
					dims, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	want, got := vec(), vec()
	contractOracle(k, want, src, vec(), false)
	if err := k.MulVecInto(got, src, vec()); err != nil {
		t.Fatal(err)
	}
	same("MulVecInto", got, want)

	abs := make([]*Dense, len(factors))
	for d, f := range factors {
		abs[d] = &Dense{rows: f.rows, cols: f.cols, data: make([]float64, len(f.data))}
		for i, v := range f.data {
			abs[d].data[i] = math.Abs(v)
		}
	}
	absSrc := vec()
	for i, v := range src {
		absSrc[i] = math.Abs(v)
	}
	k = mustKron(t, abs...)
	wantSum, wantMax, sum, rowMax := vec(), vec(), vec(), vec()
	contractOracle(k, wantSum, absSrc, vec(), false)
	contractOracle(k, wantMax, absSrc, vec(), true)
	if err := k.SumMaxMulVecInto(sum, rowMax, absSrc, vec(), vec()); err != nil {
		t.Fatal(err)
	}
	same("SumMaxMulVecInto sum", sum, wantSum)
	same("SumMaxMulVecInto rowMax", rowMax, wantMax)
}

// TestKronContractMatchesOracle pins both kernels of both products to the
// row-axpy oracle for every shape with d = 1–4 factors of n = 1–7 (d = 4
// sampled): n = 1 makes a mid-tensor mode stride 1, and a quarter of the
// factor entries and a fifth of the src entries are planted zeros.
func TestKronContractMatchesOracle(t *testing.T) {
	r := randx.New(31)
	value := func(zeroRate float64) float64 {
		if r.Float64() < zeroRate {
			return 0
		}
		return 2*r.Float64() - 1
	}
	shapes := 0
	for d := 1; d <= 4; d++ {
		combos := 1
		for i := 0; i < d; i++ {
			combos *= 7
		}
		for c := 0; c < combos; c++ {
			if d == 4 && r.Intn(8) != 0 {
				continue
			}
			dims := make([]int, d)
			for i, rest := 0, c; i < d; i, rest = i+1, rest/7 {
				dims[i] = 1 + rest%7
			}
			factors := make([]*Dense, d)
			size := 1
			for i, n := range dims {
				f := New(n, n)
				for j := range f.data {
					f.data[j] = value(0.25)
				}
				factors[i] = f
				size *= n
			}
			src := make([]float64, size)
			for i := range src {
				src[i] = value(0.2)
			}
			checkContractMatchesOracle(t, dims, factors, src)
			shapes++
		}
	}
	t.Logf("%d shapes", shapes)
}

// FuzzKronContract checks the kernels against the oracle on fuzzed shapes
// and entries: shape packs the factor count (low two bits, plus one) and
// three bits per factor size (mod 7, plus one); data supplies the factor
// entries, then src, as signed eighths with byte 0x80 read as +Inf (so the
// zero-entry skip is observable), cycled, and all zero when data is empty.
func FuzzKronContract(f *testing.F) {
	f.Add(uint16(0x0b2), []byte{8, 0, 16, 255, 3})
	f.Add(uint16(0x1fb), []byte{0, 0, 7, 0, 129})
	f.Add(uint16(0x092), []byte{})
	f.Add(uint16(0x0e3), []byte{0, 0x80, 3, 0, 0xf0})
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		d := 1 + int(shape&3)
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 1 + int(shape>>(2+3*i)&7)%7
		}
		next := 0
		value := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := int8(data[next%len(data)])
			next++
			if b == math.MinInt8 {
				return math.Inf(1)
			}
			return float64(b) / 8
		}
		factors := make([]*Dense, d)
		size := 1
		for i, n := range dims {
			fac := New(n, n)
			for j := range fac.data {
				fac.data[j] = value()
			}
			factors[i] = fac
			size *= n
		}
		src := make([]float64, size)
		for i := range src {
			src[i] = value()
		}
		checkContractMatchesOracle(t, dims, factors, src)
	})
}

// BenchmarkKronContract times both products at search-multi's 4·5·6 shape
// (120 cells): mul is one MulVecInto, sum-max one fused SumMaxMulVecInto.
func BenchmarkKronContract(b *testing.B) {
	r := randx.New(37)
	k, err := NewKron(randomFactors(r, []int{4, 5, 6})...)
	if err != nil {
		b.Fatal(err)
	}
	n := k.Size()
	src := make([]float64, n)
	for i := range src {
		src[i] = r.Float64()
	}
	sum, rowMax, sumTmp, maxTmp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := k.MulVecInto(sum, src, sumTmp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum-max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := k.SumMaxMulVecInto(sum, rowMax, src, sumTmp, maxTmp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
