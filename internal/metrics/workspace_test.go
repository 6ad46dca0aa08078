package metrics

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// randomStochastic draws a random column-stochastic matrix of size n. shape
// tilts the draw: 0 uniform Dirichlet-ish columns, 1 near-deterministic
// (diagonal mass ≈ 1), 2 near-singular
// (all columns pulled toward one shared column, stressing the LU path).
func randomStochastic(r *randx.Source, n, shape int) *rr.Matrix {
	cols := make([][]float64, n)
	draw := func() []float64 {
		c := make([]float64, n)
		var sum float64
		for j := range c {
			c[j] = r.Exp(1)
			sum += c[j]
		}
		for j := range c {
			c[j] /= sum
		}
		return c
	}
	switch shape {
	case 1:
		for i := range cols {
			c := make([]float64, n)
			eps := 1e-9 * (1 + r.Float64())
			for j := range c {
				c[j] = eps / float64(n-1)
			}
			c[i] = 1 - eps
			cols[i] = c
		}
	case 2:
		base := draw()
		for i := range cols {
			c := make([]float64, n)
			noise := draw()
			t := 1e-7 * (1 + r.Float64())
			for j := range c {
				c[j] = (1-t)*base[j] + t*noise[j]
			}
			cols[i] = c
		}
	default:
		for i := range cols {
			cols[i] = draw()
		}
	}
	m, err := rr.FromColumns(cols)
	if err != nil {
		panic(err)
	}
	return m
}

func randomPrior(r *randx.Source, n int) []float64 {
	p := make([]float64, n)
	var sum float64
	for i := range p {
		p[i] = 0.01 + r.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// evaluationEqual compares the canonical scalar fields bit-for-bit (both
// sides of the equivalence tests carry no extra objectives).
func evaluationEqual(a, b Evaluation) bool {
	return a.Privacy == b.Privacy && a.Utility == b.Utility &&
		a.MaxPosterior == b.MaxPosterior && len(a.Extra) == 0 && len(b.Extra) == 0
}

// TestWorkspaceEvaluateMatchesComposed is the fused-path equivalence
// property: on random column-stochastic matrices — including near-singular
// and near-deterministic ones — the single-sweep Workspace evaluator must
// reproduce the formula-by-formula EvaluateComposed oracle bit-for-bit
// (the optimizer's reproducibility guarantee depends on exact, not
// approximate, agreement). One Workspace is reused across all trials and
// sizes to exercise buffer reuse and resizing.
func TestWorkspaceEvaluateMatchesComposed(t *testing.T) {
	r := randx.New(2024)
	ws := NewWorkspace()
	trials := 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(15)
		shape := trial % 3
		m := randomStochastic(r, n, shape)
		prior := randomPrior(r, n)
		records := 1 + r.Intn(100000)

		want, wantErr := EvaluateComposed(m, prior, records)
		got, gotErr := ws.Evaluate(m, prior, records)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("n=%d shape=%d: error mismatch: composed=%v fused=%v", n, shape, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(gotErr, rr.ErrSingular) != !errors.Is(wantErr, rr.ErrSingular) {
				t.Fatalf("n=%d shape=%d: error kind mismatch: composed=%v fused=%v", n, shape, wantErr, gotErr)
			}
			continue
		}
		trials++
		if !evaluationEqual(got, want) {
			t.Fatalf("n=%d shape=%d: fused %+v != composed %+v", n, shape, got, want)
		}
		// The package-level Evaluate must be the same fused result.
		pkg, err := Evaluate(m, prior, records)
		if err != nil || !evaluationEqual(pkg, want) {
			t.Fatalf("n=%d shape=%d: Evaluate %+v (err %v) != composed %+v", n, shape, pkg, err, want)
		}
	}
	if trials < 300 {
		t.Fatalf("only %d feasible trials; generator is broken", trials)
	}
}

// TestWorkspaceEvaluateHitsClampAndSingular pins two edge branches the
// random sweep does not reach: the Theorem-6 round-off clamp and
// singular-matrix rejection. Column 0 of the clamp input sums to 1 + 1e-9,
// inside FromColumns' tolerance, so under the prior (1, 0) row 0's
// quad − mean² is 1/(1 + 1e-9) − 1 < 0 and its unclamped MSE at N = 1000 is
// −1e-12. Both Theorem-6 loops must store it as zero: rr.InversionMSEInto,
// behind InversionMSE and the workspace, and the joint workspace's own, at
// d = 1 and for the input ⊗ the 2×2 identity at d = 2.
func TestWorkspaceEvaluateHitsClampAndSingular(t *testing.T) {
	r := randx.New(7)
	ws := NewWorkspace()

	m, err := rr.FromColumns([][]float64{{1 + 1e-9, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	prior := []float64{1, 0}
	if mses, err := m.InversionMSE(prior, 1000); err != nil || mses[0] != 0 || mses[1] != 0 {
		t.Fatalf("InversionMSE = %v (err %v), want [0 0]", mses, err)
	}
	if ev, err := ws.Evaluate(m, prior, 1000); err != nil || ev.Utility != 0 {
		t.Fatalf("Workspace.Evaluate utility = %g (err %v), want 0", ev.Utility, err)
	}
	jws := NewJointWorkspace()
	for _, tc := range []struct {
		ms    []*rr.Matrix
		joint []float64
	}{
		{[]*rr.Matrix{m}, prior},
		{[]*rr.Matrix{m, rr.Identity(2)}, []float64{1, 0, 0, 0}},
	} {
		if ev, err := jws.Evaluate(tc.ms, tc.joint, 1000); err != nil || ev.Utility != 0 {
			t.Fatalf("JointWorkspace.Evaluate at d=%d: utility = %g (err %v), want 0", len(tc.ms), ev.Utility, err)
		}
	}

	// Exactly singular: two identical columns.
	col := []float64{0.5, 0.25, 0.25}
	sing, err := rr.FromColumns([][]float64{col, col, {0.2, 0.3, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Evaluate(sing, []float64{0.3, 0.3, 0.4}, 1000); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("singular matrix: got err %v, want ErrSingular", err)
	}
	// The workspace must stay usable after a singular failure.
	if _, err := ws.Evaluate(randomStochastic(r, 3, 0), []float64{0.3, 0.3, 0.4}, 1000); err != nil {
		t.Fatalf("workspace unusable after singular input: %v", err)
	}
}

// TestWorkspaceMaxPosteriorMatchesPackage checks the workspace's and the
// package's MaxPosterior and MeetsBound against the oracle's largest entry
// of the materialized posterior, bit for bit.
func TestWorkspaceMaxPosteriorMatchesPackage(t *testing.T) {
	r := randx.New(99)
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(15)
		m := randomStochastic(r, n, trial%3)
		prior := randomPrior(r, n)

		want, err := posteriorMax(m, prior)
		if err != nil {
			t.Fatalf("n=%d: oracle: %v", n, err)
		}
		got, err := ws.MaxPosterior(m, prior)
		if err != nil || got != want {
			t.Fatalf("n=%d: workspace MaxPosterior %.17g (err %v) != oracle %.17g", n, got, err, want)
		}
		if pkg, err := MaxPosterior(m, prior); err != nil || pkg != want {
			t.Fatalf("n=%d: package MaxPosterior %.17g (err %v) != oracle %.17g", n, pkg, err, want)
		}
		delta := r.Float64()
		wantOK := want <= delta+BoundTolerance
		gotOK, err1 := ws.MeetsBound(m, prior, delta)
		pkgOK, err2 := MeetsBound(m, prior, delta)
		if err1 != nil || err2 != nil || gotOK != wantOK || pkgOK != wantOK {
			t.Fatalf("n=%d delta=%v: MeetsBound workspace %v/%v, package %v/%v, oracle %v", n, delta, gotOK, err1, pkgOK, err2, wantOK)
		}
	}
}

// TestWorkspaceEvaluateWithinMatchesEvaluate is EvaluateWithin's contract:
// ok is exactly MeetsBound's answer, and a matrix that meets the bound gets
// exactly Evaluate's result and error. Bounds are drawn around each
// matrix's own worst posterior so both branches run, and the singular
// shape covers the rule that a singular matrix missing the bound is a miss,
// not an error.
func TestWorkspaceEvaluateWithinMatchesEvaluate(t *testing.T) {
	r := randx.New(31)
	ws, ref := NewWorkspace(), NewWorkspace()
	col := []float64{0.5, 0.25, 0.25}
	singular, err := rr.FromColumns([][]float64{col, col, {0.2, 0.3, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	var met, missed, singularMisses int
	for trial := 0; trial < 600; trial++ {
		var m *rr.Matrix
		var prior []float64
		if trial%5 == 4 {
			m, prior = singular, randomPrior(r, 3)
		} else {
			n := 2 + r.Intn(12)
			m, prior = randomStochastic(r, n, trial%3), randomPrior(r, n)
		}
		records := 1 + r.Intn(100000)
		mp, err := ref.MaxPosterior(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		delta := mp * (0.9 + 0.2*r.Float64())
		if trial%7 == 0 {
			delta = mp // exactly on the bound
		}
		wantOK, err := ref.MeetsBound(m, prior, delta)
		if err != nil {
			t.Fatal(err)
		}
		wantEv, wantErr := ref.Evaluate(m, prior, records)
		ev, ok, err := ws.EvaluateWithin(m, prior, records, delta)
		if ok != (wantOK && err == nil) {
			t.Fatalf("trial %d: EvaluateWithin ok %v (err %v), MeetsBound %v", trial, ok, err, wantOK)
		}
		if !wantOK {
			if err != nil || !evaluationEqual(ev, Evaluation{}) {
				t.Fatalf("trial %d: a miss returned %+v, %v; want a zero Evaluation and no error", trial, ev, err)
			}
			missed++
			if wantErr != nil {
				singularMisses++
			}
			continue
		}
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, rr.ErrSingular)) {
			t.Fatalf("trial %d: EvaluateWithin err %v, Evaluate err %v", trial, err, wantErr)
		}
		if err == nil && !evaluationEqual(ev, wantEv) {
			t.Fatalf("trial %d: EvaluateWithin %+v != Evaluate %+v", trial, ev, wantEv)
		}
		met++
	}
	if met == 0 || missed == 0 || singularMisses == 0 {
		t.Fatalf("%d met, %d missed (%d singular); every branch must run", met, missed, singularMisses)
	}
}

// FuzzWorkspaceEvaluate pins the fused workspace to the test-file oracle bit
// for bit on matrices and priors built from the fuzz bytes: the first byte
// picks the order n (2–9), the next n² bytes the column weights and the
// next n the prior weights (a zero weight gives a zero entry, so zero
// posterior rows and zero-prior categories occur; an all-zero column or
// prior falls back to uniform). Evaluate, EvaluateWithin at the oracle's
// own worst posterior, and the package-level metrics must all agree with
// EvaluateComposed, error for error.
func FuzzWorkspaceEvaluate(f *testing.F) {
	f.Add([]byte{3, 8, 1, 1, 1, 8, 1, 1, 1, 8, 5, 3, 2}, uint32(1000))
	// Singular: both columns uniform.
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1}, uint32(10))
	// Identity with a zero prior entry, so one disguised row is unobservable.
	f.Add([]byte{4, 255, 0, 0, 0, 0, 255, 0, 0, 0, 0, 255, 0, 0, 0, 0, 255, 9, 0, 4, 1}, uint32(1))
	f.Add([]byte{5, 200, 3, 7, 1, 9, 4, 180, 6, 2, 8, 1, 5, 220}, uint32(123456))
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte, rec uint32) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%8
		data = data[1:]
		next := func() float64 {
			if len(data) == 0 {
				return 1
			}
			v := float64(data[0])
			data = data[1:]
			return v
		}
		weights := func() []float64 {
			w := make([]float64, n)
			var sum float64
			for i := range w {
				w[i] = next()
				sum += w[i]
			}
			for i := range w {
				if sum == 0 {
					w[i] = 1 / float64(n)
				} else {
					w[i] /= sum
				}
			}
			return w
		}
		cols := make([][]float64, n)
		for i := range cols {
			cols[i] = weights()
		}
		m, err := rr.FromColumns(cols)
		if err != nil {
			t.Skip(err) // normalized weights fell outside the column-sum tolerance
		}
		prior := weights()
		records := 1 + int(rec%1000000)

		want, wantErr := EvaluateComposed(m, prior, records)
		got, gotErr := ws.Evaluate(m, prior, records)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Evaluate err %v, oracle err %v", gotErr, wantErr)
		}
		if wantErr != nil && !errors.Is(gotErr, rr.ErrSingular) {
			t.Fatalf("Evaluate err %v, want rr.ErrSingular (oracle: %v)", gotErr, wantErr)
		}
		if wantErr == nil && !evaluationBits(got, want) {
			t.Fatalf("Evaluate %+v != oracle %+v", got, want)
		}
		if pkg, err := Evaluate(m, prior, records); (err == nil) != (wantErr == nil) || (err == nil && !evaluationBits(pkg, want)) {
			t.Fatalf("package Evaluate %+v (err %v) != oracle %+v (err %v)", pkg, err, want, wantErr)
		}

		mp, err := posteriorMax(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ws.MaxPosterior(m, prior); err != nil || !sameBits(got, mp) {
			t.Fatalf("MaxPosterior %v (err %v) != oracle %v", got, err, mp)
		}
		ev, ok, err := ws.EvaluateWithin(m, prior, records, mp)
		if !ok && err == nil {
			t.Fatalf("EvaluateWithin missed at the oracle's own worst posterior %v", mp)
		}
		if (err == nil) != (wantErr == nil) || (err == nil && !evaluationBits(ev, want)) {
			t.Fatalf("EvaluateWithin %+v (err %v) != oracle %+v (err %v)", ev, err, want, wantErr)
		}
		if mp > 0 {
			if ev, ok, err := ws.EvaluateWithin(m, prior, records, mp/2-BoundTolerance); ok || err != nil || !evaluationBits(ev, Evaluation{}) {
				t.Fatalf("EvaluateWithin below the worst posterior: %+v, %v, %v; want a plain miss", ev, ok, err)
			}
		}

		priv, err := Privacy(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Accuracy(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if wantErr == nil && (!sameBits(priv, want.Privacy) || !sameBits(1-a, want.Privacy)) {
			t.Fatalf("Privacy %v, 1 − Accuracy %v, oracle %v", priv, 1-a, want.Privacy)
		}
		util, err := Utility(m, prior, records)
		if (err == nil) != (wantErr == nil) || (err == nil && !sameBits(util, want.Utility)) {
			t.Fatalf("Utility %v (err %v) != oracle %v (err %v)", util, err, want.Utility, wantErr)
		}
	})
}

// sameBits reports bitwise equality, treating every NaN as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// evaluationBits is evaluationEqual under sameBits.
func evaluationBits(a, b Evaluation) bool {
	return sameBits(a.Privacy, b.Privacy) && sameBits(a.Utility, b.Utility) &&
		sameBits(a.MaxPosterior, b.MaxPosterior) && len(a.Extra) == 0 && len(b.Extra) == 0
}
