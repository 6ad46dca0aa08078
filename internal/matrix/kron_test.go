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
	if k.NumFactors() != 3 {
		t.Fatalf("NumFactors = %d, want 3", k.NumFactors())
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

func TestKronMaxMulVecMatchesDense(t *testing.T) {
	r := randx.New(13)
	for _, dims := range [][]int{{3}, {2, 2}, {3, 4, 2}} {
		k := mustKron(t, randomFactors(r, dims)...)
		n := k.Size()
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Float64()
		}
		dst := make([]float64, n)
		tmp := make([]float64, n)
		if err := k.MaxMulVecInto(dst, src, tmp); err != nil {
			t.Fatal(err)
		}
		dense := k.Dense()
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				if v := dense.At(i, j) * src[j]; v > want {
					want = v
				}
			}
			if rel := math.Abs(dst[i]-want) / math.Max(1, want); rel > 1e-12 {
				t.Fatalf("dims %v: dst[%d] = %v, want %v", dims, i, dst[i], want)
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

func TestKronColAndDiag(t *testing.T) {
	r := randx.New(23)
	dims := []int{3, 2, 2}
	k := mustKron(t, randomFactors(r, dims)...)
	n := k.Size()
	dense := k.Dense()
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		if err := k.ColInto(col, j); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(col[i]-dense.At(i, j)) > 1e-14 {
				t.Fatalf("col %d[%d] = %v, want %v", j, i, col[i], dense.At(i, j))
			}
		}
	}
	if err := k.ColInto(col, n); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-range col: err = %v, want ErrShape", err)
	}
	diag := make([]float64, n)
	if err := k.DiagInto(diag); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(diag[i]-dense.At(i, i)) > 1e-14 {
			t.Fatalf("diag[%d] = %v, want %v", i, diag[i], dense.At(i, i))
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
