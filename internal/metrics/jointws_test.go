package metrics

import (
	"errors"
	"math"
	"testing"
	"time"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// randomTuple returns random column-stochastic matrices of the given sizes:
// each column is a normalized positive draw with a boosted diagonal, so the
// tuples exercise asymmetric, non-Warner structure while staying
// well-conditioned (the diagonal dominance keeps the inverse tame, so the
// 1e-12 factored-vs-dense comparison measures algorithmic agreement rather
// than round-off amplification through an ill-conditioned inverse).
func randomTuple(t testing.TB, r *randx.Source, sizes []int) []*rr.Matrix {
	t.Helper()
	out := make([]*rr.Matrix, len(sizes))
	for d, n := range sizes {
		cols := make([][]float64, n)
		for i := range cols {
			col := make([]float64, n)
			var sum float64
			for j := range col {
				col[j] = r.Float64() + 0.05
				if j == i {
					col[j] += float64(n)
				}
				sum += col[j]
			}
			for j := range col {
				col[j] /= sum
			}
			cols[i] = col
		}
		m, err := rr.FromColumns(cols)
		if err != nil {
			t.Fatal(err)
		}
		out[d] = m
	}
	return out
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestJointWorkspaceMatchesDenseOracle is the tentpole property test: for
// random tuples with d ∈ {2,3} attributes of 2..5 categories, the factored
// workspace must match the dense JointChannel-composed metrics within 1e-12.
func TestJointWorkspaceMatchesDenseOracle(t *testing.T) {
	r := randx.New(42)
	ws := NewJointWorkspace()
	const records = 10000
	for trial := 0; trial < 60; trial++ {
		d := 2 + r.Intn(2)
		sizes := make([]int, d)
		cells := 1
		for i := range sizes {
			sizes[i] = 2 + r.Intn(4)
			cells *= sizes[i]
		}
		ms := randomTuple(t, r, sizes)
		joint := randomJoint(cells, r)

		ch, err := JointChannel(ms)
		if err != nil {
			t.Fatal(err)
		}
		wantPriv, err := Privacy(ch, joint)
		if err != nil {
			t.Fatal(err)
		}
		wantUtil, err := Utility(ch, joint, records)
		if err != nil {
			t.Fatal(err)
		}
		wantMP, err := MaxPosterior(ch, joint)
		if err != nil {
			t.Fatal(err)
		}

		ev, err := ws.Evaluate(ms, joint, records)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if !relClose(ev.Privacy, wantPriv, 1e-12) {
			t.Fatalf("sizes %v: factored privacy %v, dense %v", sizes, ev.Privacy, wantPriv)
		}
		if !relClose(ev.Utility, wantUtil, 1e-12) {
			t.Fatalf("sizes %v: factored utility %v, dense %v", sizes, ev.Utility, wantUtil)
		}
		if !relClose(ev.MaxPosterior, wantMP, 1e-12) {
			t.Fatalf("sizes %v: factored max posterior %v, dense %v", sizes, ev.MaxPosterior, wantMP)
		}

		// The standalone accessors agree with the bundle.
		priv, err := ws.Privacy(ms, joint)
		if err != nil {
			t.Fatal(err)
		}
		util, err := ws.Utility(ms, joint, records)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := ws.MaxPosterior(ms, joint)
		if err != nil {
			t.Fatal(err)
		}
		if priv != ev.Privacy || util != ev.Utility || mp != ev.MaxPosterior {
			t.Fatalf("sizes %v: standalone (%v %v %v) != bundled (%v %v %v)",
				sizes, priv, util, mp, ev.Privacy, ev.Utility, ev.MaxPosterior)
		}
	}
}

// TestJointWorkspaceOneTupleMatchesFused pins the d = 1 case of the factored
// evaluator to the fused single-attribute Workspace, bit for bit: privacy,
// utility and maximum posterior agree on every random matrix and prior. The
// single-attribute search still keeps the fused path, which is faster per
// evaluation (DESIGN.md §7).
func TestJointWorkspaceOneTupleMatchesFused(t *testing.T) {
	r := randx.New(7)
	jws, ws := NewJointWorkspace(), NewWorkspace()
	const records = 10000
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(9)
		ms := randomTuple(t, r, []int{n})
		prior := randomJoint(n, r)
		want, werr := ws.Evaluate(ms[0], prior, records)
		got, gerr := jws.Evaluate(ms, prior, records)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d (n=%d): fused err %v, factored err %v", trial, n, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got.Privacy != want.Privacy || got.Utility != want.Utility || got.MaxPosterior != want.MaxPosterior {
			t.Fatalf("trial %d (n=%d): factored %+v, fused %+v", trial, n, got, want)
		}
	}
}

// TestJointWorkspaceBeyondDenseCap pins the point of the factoring: a d=4
// product space larger than maxJointCells evaluates fine through the
// workspace while the dense oracle refuses it.
func TestJointWorkspaceBeyondDenseCap(t *testing.T) {
	r := randx.New(5)
	sizes := []int{12, 12, 12, 12} // 20736 cells > 1<<14
	cells := 12 * 12 * 12 * 12
	if cells <= maxJointCells {
		t.Fatalf("test sizes %v do not exceed the dense cap", sizes)
	}
	ms := randomTuple(t, r, sizes)
	joint := randomJoint(cells, r)
	if _, err := JointChannel(ms); !errors.Is(err, ErrShape) {
		t.Fatalf("dense oracle accepted %d cells: %v", cells, err)
	}
	ev, err := NewJointWorkspace().Evaluate(ms, joint, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !(ev.Privacy > 0 && ev.Privacy < 1) {
		t.Fatalf("privacy = %v, want in (0,1)", ev.Privacy)
	}
	if ev.Utility <= 0 {
		t.Fatalf("utility = %v, want positive", ev.Utility)
	}
	if ev.MaxPosterior < BoundFloor(joint)-1e-12 || ev.MaxPosterior > 1+1e-12 {
		t.Fatalf("max posterior = %v outside [mode, 1]", ev.MaxPosterior)
	}
}

func TestJointWorkspaceValidates(t *testing.T) {
	ws := NewJointWorkspace()
	joint := uniformJoint(4)
	ms := []*rr.Matrix{rr.Identity(2), rr.Identity(2)}
	if _, err := ws.Evaluate(nil, joint, 100); !errors.Is(err, ErrShape) {
		t.Fatalf("no attributes: err = %v, want ErrShape", err)
	}
	if _, err := ws.Evaluate([]*rr.Matrix{rr.Identity(2), nil}, joint, 100); !errors.Is(err, ErrShape) {
		t.Fatalf("nil matrix: err = %v, want ErrShape", err)
	}
	if _, err := ws.Evaluate(ms, uniformJoint(5), 100); !errors.Is(err, ErrShape) {
		t.Fatalf("wrong joint length: err = %v, want ErrShape", err)
	}
	if _, err := ws.Evaluate(ms, []float64{0.5, 0.5, 0.5, 0.5}, 100); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("non-normalized joint: err = %v, want ErrBadPrior", err)
	}
	if _, err := ws.Evaluate(ms, []float64{-0.5, 0.5, 0.5, 0.5}, 100); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("negative joint: err = %v, want ErrBadPrior", err)
	}
	if _, err := ws.Evaluate(ms, joint, 0); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("zero records: err = %v, want ErrBadRecords", err)
	}
}

func TestJointWorkspaceSingularTuple(t *testing.T) {
	// TotallyRandom is singular: utility must fail with rr.ErrSingular (as
	// the dense path did), while privacy — which needs no inverse — works.
	ms := []*rr.Matrix{rr.TotallyRandom(2), rr.TotallyRandom(3)}
	joint := uniformJoint(6)
	ws := NewJointWorkspace()
	if _, err := ws.Evaluate(ms, joint, 100); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("Evaluate: err = %v, want rr.ErrSingular", err)
	}
	if _, err := ws.Utility(ms, joint, 100); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("Utility: err = %v, want rr.ErrSingular", err)
	}
	priv, err := ws.Privacy(ms, joint)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect privacy: the totally-random tuple reveals nothing beyond the
	// prior, so accuracy equals the joint mode.
	if want := 1 - BoundFloor(joint); math.Abs(priv-want) > 1e-12 {
		t.Fatalf("privacy = %v, want %v", priv, want)
	}
}

// TestJointWorkspaceReuseAcrossShapes exercises the lazy resize: the same
// workspace must serve tuples of different attribute counts and sizes.
func TestJointWorkspaceReuseAcrossShapes(t *testing.T) {
	r := randx.New(9)
	ws := NewJointWorkspace()
	for _, sizes := range [][]int{{3, 4}, {2, 2, 2}, {3, 4}, {5}} {
		cells := 1
		for _, n := range sizes {
			cells *= n
		}
		ms := randomTuple(t, r, sizes)
		joint := randomJoint(cells, r)
		ev, err := ws.Evaluate(ms, joint, 1000)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		want, err := JointEvaluate(ms, joint, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Privacy != want.Privacy || ev.Utility != want.Utility || ev.MaxPosterior != want.MaxPosterior {
			t.Fatalf("sizes %v: reused workspace %+v != fresh %+v", sizes, ev, want)
		}
	}
}

func TestJointWorkspaceMeetsBound(t *testing.T) {
	ms := []*rr.Matrix{mustWarner(t, 2, 0.6), mustWarner(t, 3, 0.6)}
	joint := uniformJoint(6)
	ws := NewJointWorkspace()
	mp, err := ws.MaxPosterior(ms, joint)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ws.MeetsBound(ms, joint, mp)
	if err != nil || !ok {
		t.Fatalf("MeetsBound at mp: %v %v, want true", ok, err)
	}
	ok, err = ws.MeetsBound(ms, joint, mp-0.01)
	if err != nil || ok {
		t.Fatalf("MeetsBound below mp: %v %v, want false", ok, err)
	}
}

// TestJointWorkspaceEvaluateWithin pins the one-sweep entry point to
// Evaluate: at a bound the tuple meets it returns Evaluate's result bit for
// bit, and just below the tuple's posterior it returns false and nothing
// else. Half the trials are at search-multi's 4·5·6 shape.
func TestJointWorkspaceEvaluateWithin(t *testing.T) {
	r := randx.New(61)
	ws, ref := NewJointWorkspace(), NewJointWorkspace()
	const records = 10000
	for trial := 0; trial < 200; trial++ {
		sizes := []int{4, 5, 6}
		if trial%2 == 1 {
			sizes = make([]int, 1+r.Intn(3))
			for i := range sizes {
				sizes[i] = 2 + r.Intn(5)
			}
		}
		cells := 1
		for _, n := range sizes {
			cells *= n
		}
		ms := randomTuple(t, r, sizes)
		joint := randomJoint(cells, r)
		want, err := ref.Evaluate(ms, joint, records)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := ws.EvaluateWithin(ms, joint, records, want.MaxPosterior)
		if err != nil || !ok {
			t.Fatalf("sizes %v: at its own posterior: ok %v, err %v", sizes, ok, err)
		}
		if math.Float64bits(got.Privacy) != math.Float64bits(want.Privacy) ||
			math.Float64bits(got.Utility) != math.Float64bits(want.Utility) ||
			math.Float64bits(got.MaxPosterior) != math.Float64bits(want.MaxPosterior) {
			t.Fatalf("sizes %v: EvaluateWithin %+v, Evaluate %+v", sizes, got, want)
		}
		got, ok, err = ws.EvaluateWithin(ms, joint, records, want.MaxPosterior-1e-9)
		if err != nil || ok || got.Privacy != 0 || got.Utility != 0 || got.MaxPosterior != 0 || got.Extra != nil {
			t.Fatalf("sizes %v: below its posterior: %+v, ok %v, err %v", sizes, got, ok, err)
		}
	}
}

// TestJointWorkspaceEvaluateWithinSingular: a singular tuple that meets the
// bound fails as Evaluate does, and one that misses it is reported as
// missing it, without an inverse and so without an error.
func TestJointWorkspaceEvaluateWithinSingular(t *testing.T) {
	ms := []*rr.Matrix{rr.TotallyRandom(2), mustWarner(t, 3, 0.9)}
	joint := randomJoint(6, randx.New(3))
	ws := NewJointWorkspace()
	mp, err := ws.MaxPosterior(ms, joint)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ws.EvaluateWithin(ms, joint, 100, mp); ok || !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("meets the bound: ok %v, err %v, want rr.ErrSingular", ok, err)
	}
	if _, ok, err := ws.EvaluateWithin(ms, joint, 100, mp-0.01); ok || err != nil {
		t.Fatalf("misses the bound: ok %v, err %v, want false and no error", ok, err)
	}
	if _, _, err := ws.EvaluateWithin(ms, joint, 0, 1); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("zero records: err = %v, want ErrBadRecords", err)
	}
}

// TestJointWorkspaceZeroAllocMixedSizes holds the type's promise at
// attribute sizes that differ, where the factored inverse runs one LU
// workspace over 4×4, 5×5 and 6×6 factors in turn: once warm, Evaluate,
// MaxPosterior and EvaluateWithin (on both of its outcomes) allocate
// nothing.
func TestJointWorkspaceZeroAllocMixedSizes(t *testing.T) {
	r := randx.New(67)
	ms := randomTuple(t, r, []int{4, 5, 6})
	joint := randomJoint(120, r)
	ws := NewJointWorkspace()
	ev, err := ws.Evaluate(ms, joint, 10000)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() error{
		"Evaluate": func() error {
			_, err := ws.Evaluate(ms, joint, 10000)
			return err
		},
		"MaxPosterior": func() error {
			_, err := ws.MaxPosterior(ms, joint)
			return err
		},
		"EvaluateWithin/meets": func() error {
			_, _, err := ws.EvaluateWithin(ms, joint, 10000, ev.MaxPosterior)
			return err
		},
		"EvaluateWithin/misses": func() error {
			_, _, err := ws.EvaluateWithin(ms, joint, 10000, ev.MaxPosterior/2)
			return err
		},
	}
	for name, call := range calls {
		var callErr error
		if n := testing.AllocsPerRun(50, func() { callErr = call() }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
		if callErr != nil {
			t.Fatalf("%s: %v", name, callErr)
		}
	}
}

// TestJointEvaluateSpeedupFloor enforces the acceptance criterion: at d=3,
// n=5 the factored evaluation must be at least 5× faster than the dense
// channel path. The real ratio is well over an order of magnitude (the dense
// side re-materializes a 125×125 channel and LU-inverts it per evaluation),
// so the 5× floor has a wide safety margin even on loaded CI machines.
func TestJointEvaluateSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	ms := make([]*rr.Matrix, 3)
	for i := range ms {
		ms[i] = mustWarner(t, 5, 0.75)
	}
	joint := uniformJoint(125)
	const iters = 200
	ws := NewJointWorkspace()
	dws := NewWorkspace()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := ws.Evaluate(ms, joint, 10000); err != nil {
			t.Fatal(err)
		}
	}
	factoredNs := time.Since(start)
	start = time.Now()
	for i := 0; i < iters; i++ {
		ch, err := JointChannel(ms)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dws.Evaluate(ch, joint, 10000); err != nil {
			t.Fatal(err)
		}
	}
	denseNs := time.Since(start)
	if factoredNs*5 > denseNs {
		t.Fatalf("factored %v vs dense %v for %d evaluations: speedup %.1fx < 5x",
			factoredNs, denseNs, iters, float64(denseNs)/float64(factoredNs))
	}
	t.Logf("factored vs dense at d=3 n=5: %.1fx", float64(denseNs)/float64(factoredNs))
}

// BenchmarkJointEvaluate is the pinned factored-vs-dense comparison at the
// acceptance size d=3, n=5 (125 cells): the dense side materializes the
// Kronecker channel and runs the 1-D fused evaluator over it (one 125×125 LU
// per evaluation); the factored side reuses a JointWorkspace. The factored
// side must be at least 5× faster; see TestJointEvaluateSpeedupFloor for the
// enforced check. factored-4x5x6 is the factored side at search-multi's
// mixed attribute sizes (120 cells), where the factors differ in size.
func BenchmarkJointEvaluate(b *testing.B) {
	ms := make([]*rr.Matrix, 3)
	for i := range ms {
		m, err := rr.Warner(5, 0.75)
		if err != nil {
			b.Fatal(err)
		}
		ms[i] = m
	}
	joint := uniformJoint(125)
	b.Run("factored", func(b *testing.B) {
		ws := NewJointWorkspace()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Evaluate(ms, joint, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factored-4x5x6", func(b *testing.B) {
		mixed := make([]*rr.Matrix, 3)
		for i, n := range []int{4, 5, 6} {
			m, err := rr.Warner(n, 0.75)
			if err != nil {
				b.Fatal(err)
			}
			mixed[i] = m
		}
		joint := uniformJoint(120)
		ws := NewJointWorkspace()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Evaluate(mixed, joint, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		ws := NewWorkspace()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch, err := JointChannel(ms)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ws.Evaluate(ch, joint, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
