package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

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

func uniformPrior(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

func TestValidatePriorErrors(t *testing.T) {
	m := rr.Identity(3)
	if _, err := Privacy(m, []float64{0.5, 0.5}); !errors.Is(err, ErrShape) {
		t.Fatalf("short prior: err = %v, want ErrShape", err)
	}
	if _, err := Privacy(m, []float64{0.5, 0.6, 0.2}); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("non-normalized prior: err = %v, want ErrBadPrior", err)
	}
	if _, err := Privacy(m, []float64{-0.2, 0.6, 0.6}); !errors.Is(err, ErrBadPrior) {
		t.Fatalf("negative prior: err = %v, want ErrBadPrior", err)
	}
}

func TestPosteriorRowsAreDistributions(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	post, err := Posterior(m, prior)
	if err != nil {
		t.Fatal(err)
	}
	for j, row := range post {
		var sum float64
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative posterior in row %d: %v", j, row)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posterior row %d sums to %v", j, sum)
		}
	}
}

func TestPosteriorBayesRule(t *testing.T) {
	// Hand-check one entry: P(X=0 | Y=1) = θ_{1,0}·P(0) / P*(1).
	m := mustWarner(t, 3, 0.6)
	prior := []float64{0.5, 0.3, 0.2}
	post, err := Posterior(m, prior)
	if err != nil {
		t.Fatal(err)
	}
	pStar, err := m.DisguisedDistribution(prior)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Theta(1, 0) * prior[0] / pStar[1]
	if math.Abs(post[1][0]-want) > 1e-12 {
		t.Fatalf("posterior = %v, want %v", post[1][0], want)
	}
}

func TestPosteriorUnobservableRow(t *testing.T) {
	// A matrix that never outputs category 2: rows for it must be zero.
	cols := [][]float64{
		{0.5, 0.5, 0},
		{0.5, 0.5, 0},
		{0.5, 0.5, 0},
	}
	m, err := rr.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	post, err := Posterior(m, uniformPrior(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range post[2] {
		if v != 0 {
			t.Fatalf("unobservable row has non-zero entry %d: %v", i, v)
		}
	}
}

func TestMAPEstimateIdentity(t *testing.T) {
	m := rr.Identity(4)
	est, err := MAPEstimate(m, []float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for j, e := range est {
		if e != j {
			t.Fatalf("identity MAP estimate = %v, want identity mapping", est)
		}
	}
}

func TestMAPEstimateSkewedPriorOverridesChannel(t *testing.T) {
	// With a weak channel and a very skewed prior, the MAP estimate is the
	// prior mode regardless of the observed value.
	m := mustWarner(t, 3, 0.4)
	est, err := MAPEstimate(m, []float64{0.9, 0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range est {
		if e != 0 {
			t.Fatalf("MAP estimate = %v, want all 0 under skewed prior", est)
		}
	}
}

func TestPrivacyIdentityIsZero(t *testing.T) {
	// The identity matrix discloses everything: A = 1, privacy = 0 (M1 of
	// the paper's Section III-C example).
	priv, err := Privacy(rr.Identity(5), uniformPrior(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(priv) > 1e-12 {
		t.Fatalf("identity privacy = %v, want 0", priv)
	}
}

func TestPrivacyTotallyRandomIsMax(t *testing.T) {
	// M2 of the paper: uniform output gives A = max prior... for the
	// uniform prior over n categories, A = 1/n, privacy = 1 - 1/n.
	n := 4
	priv, err := Privacy(rr.TotallyRandom(n), uniformPrior(n))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 1.0/float64(n)
	if math.Abs(priv-want) > 1e-12 {
		t.Fatalf("totally-random privacy = %v, want %v", priv, want)
	}
}

func TestPrivacyWarnerMonotoneInP(t *testing.T) {
	// Raising Warner's p (less disguise) can never improve privacy.
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	last := math.Inf(1)
	for p := 0.25; p <= 1.0; p += 0.05 {
		priv, err := Privacy(mustWarner(t, 4, p), prior)
		if err != nil {
			t.Fatal(err)
		}
		if priv > last+1e-12 {
			t.Fatalf("privacy increased from %v to %v at p=%v", last, priv, p)
		}
		last = priv
	}
}

func TestAccuracyNeverBelowPriorMode(t *testing.T) {
	// The adversary can always guess the prior mode, so A ≥ max P(X).
	prior := []float64{0.55, 0.25, 0.15, 0.05}
	for p := 0.0; p <= 1.0; p += 0.1 {
		a, err := Accuracy(mustWarner(t, 4, p), prior)
		if err != nil {
			t.Fatal(err)
		}
		if a < 0.55-1e-12 {
			t.Fatalf("accuracy %v below prior mode at p=%v", a, p)
		}
	}
}

func TestMaxPosteriorIdentity(t *testing.T) {
	mp, err := MaxPosterior(rr.Identity(3), []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mp-1) > 1e-12 {
		t.Fatalf("identity max posterior = %v, want 1", mp)
	}
}

func TestMeetsBound(t *testing.T) {
	m := rr.TotallyRandom(4)
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	// Totally random output: posterior equals prior; max posterior is 0.4.
	ok, err := MeetsBound(m, prior, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("bound 0.5 should hold for totally-random matrix")
	}
	ok, err = MeetsBound(m, prior, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("bound 0.3 cannot hold below the prior mode (Theorem 5)")
	}
}

func TestBoundFloor(t *testing.T) {
	if got := BoundFloor([]float64{0.2, 0.5, 0.3}); got != 0.5 {
		t.Fatalf("BoundFloor = %v, want 0.5", got)
	}
}

// TestTheorem5 property: for any stochastic matrix and prior, the max
// posterior is at least the prior mode.
func TestTheorem5MaxPosteriorAtLeastPriorMode(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		r := randx.New(seed)
		cols := make([][]float64, n)
		for i := range cols {
			col := make([]float64, n)
			var sum float64
			for j := range col {
				col[j] = r.Float64() + 1e-3
				sum += col[j]
			}
			for j := range col {
				col[j] /= sum
			}
			cols[i] = col
		}
		m, err := rr.FromColumns(cols)
		if err != nil {
			return false
		}
		prior := make([]float64, n)
		var sum float64
		for i := range prior {
			prior[i] = r.Float64() + 1e-3
			sum += prior[i]
		}
		for i := range prior {
			prior[i] /= sum
		}
		mp, err := MaxPosterior(m, prior)
		if err != nil {
			return false
		}
		return mp >= BoundFloor(prior)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilityIdentityIsZero(t *testing.T) {
	// No disguise, no estimation error: the MLE frequencies are exactly the
	// disguised frequencies... the sampling variance of the frequencies
	// themselves remains. For identity M, MSE(c_k) = P_k(1−P_k)/N.
	prior := []float64{0.5, 0.3, 0.2}
	const n = 1000
	mses, err := rr.Identity(3).InversionMSE(prior, n)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range prior {
		want := p * (1 - p) / n
		if math.Abs(mses[k]-want) > 1e-12 {
			t.Fatalf("identity MSE[%d] = %v, want %v", k, mses[k], want)
		}
	}
}

func TestUtilityScalesInverselyWithN(t *testing.T) {
	m := mustWarner(t, 5, 0.7)
	prior := uniformPrior(5)
	u1, err := Utility(m, prior, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := Utility(m, prior, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u1/u2-2) > 1e-9 {
		t.Fatalf("utility did not halve when N doubled: %v vs %v", u1, u2)
	}
}

func TestUtilityWorsensWithMoreNoise(t *testing.T) {
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	last := 0.0
	for _, p := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		u, err := Utility(mustWarner(t, 4, p), prior, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if u < last-1e-15 {
			t.Fatalf("utility improved when noise increased: %v then %v at p=%v", last, u, p)
		}
		last = u
	}
}

func TestUtilitySingularMatrix(t *testing.T) {
	if _, err := Utility(rr.TotallyRandom(3), uniformPrior(3), 1000); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("err = %v, want rr.ErrSingular", err)
	}
}

func TestUtilityBadRecords(t *testing.T) {
	if _, err := Utility(rr.Identity(3), uniformPrior(3), 0); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("err = %v, want ErrBadRecords", err)
	}
}

func TestEvaluateBundles(t *testing.T) {
	m := mustWarner(t, 4, 0.8)
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	ev, err := Evaluate(m, prior, 10000)
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := Privacy(m, prior)
	util, _ := Utility(m, prior, 10000)
	mp, _ := MaxPosterior(m, prior)
	if ev.Privacy != priv || ev.Utility != util || ev.MaxPosterior != mp {
		t.Fatalf("Evaluate = %+v, want (%v, %v, %v)", ev, priv, util, mp)
	}
}

// TestClosedFormUtilityMatchesMonteCarlo is the key validation of Theorem 6:
// the closed-form MSE must match the Monte-Carlo variance of the actual
// inversion estimator.
func TestClosedFormUtilityMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short mode")
	}
	m := mustWarner(t, 5, 0.7)
	prior := []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	const records = 2000
	closed, err := Utility(m, prior, records)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := EmpiricalUtility(m, prior, records, 600, randx.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(emp-closed) / closed; rel > 0.15 {
		t.Fatalf("empirical utility %v vs closed form %v (rel err %v)", emp, closed, rel)
	}
}

// TestClosedFormPrivacyMatchesSimulatedAdversary validates Equation 8
// against an actual simulated MAP adversary.
func TestClosedFormPrivacyMatchesSimulatedAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short mode")
	}
	m := mustWarner(t, 5, 0.6)
	prior := []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	closed, err := Privacy(m, prior)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := EmpiricalPrivacy(m, prior, 400000, randx.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(emp-closed) > 0.005 {
		t.Fatalf("empirical privacy %v vs closed form %v", emp, closed)
	}
}

func TestEmpiricalPrivacyValidation(t *testing.T) {
	m := rr.Identity(3)
	if _, err := EmpiricalPrivacy(m, uniformPrior(3), 0, randx.New(1)); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("err = %v, want ErrBadRecords", err)
	}
}

func TestEmpiricalUtilityValidation(t *testing.T) {
	m := rr.Identity(3)
	if _, err := EmpiricalUtility(m, uniformPrior(3), 0, 1, randx.New(1)); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("records=0: err = %v, want ErrBadRecords", err)
	}
	if _, err := EmpiricalUtility(m, uniformPrior(3), 10, 0, randx.New(1)); !errors.Is(err, ErrBadRecords) {
		t.Fatalf("trials=0: err = %v, want ErrBadRecords", err)
	}
}

func TestEmpiricalUtilityIterativeRuns(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	u, err := EmpiricalUtilityIterative(m, prior, 500, 5, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if u < 0 || math.IsNaN(u) {
		t.Fatalf("iterative empirical utility = %v", u)
	}
}

// TestPrivacyUtilityConflict reproduces the paper's Section III-C
// observation: the identity matrix has the best utility and worst privacy;
// the totally-random matrix the reverse.
func TestPrivacyUtilityConflict(t *testing.T) {
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	idPriv, err := Privacy(rr.Identity(4), prior)
	if err != nil {
		t.Fatal(err)
	}
	trPriv, err := Privacy(rr.TotallyRandom(4), prior)
	if err != nil {
		t.Fatal(err)
	}
	if !(idPriv < trPriv) {
		t.Fatalf("identity privacy %v should be below totally-random %v", idPriv, trPriv)
	}
	idUtil, err := Utility(rr.Identity(4), prior, 10000)
	if err != nil {
		t.Fatal(err)
	}
	warnUtil, err := Utility(mustWarner(t, 4, 0.5), prior, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !(idUtil < warnUtil) {
		t.Fatalf("identity utility %v should beat noisy Warner %v", idUtil, warnUtil)
	}
}

func TestPropertyPrivacyInUnitRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		r := randx.New(seed)
		cols := make([][]float64, n)
		for i := range cols {
			col := make([]float64, n)
			var sum float64
			for j := range col {
				col[j] = r.Float64()
				sum += col[j]
			}
			if sum == 0 {
				col[0] = 1
				sum = 1
			}
			for j := range col {
				col[j] /= sum
			}
			cols[i] = col
		}
		m, err := rr.FromColumns(cols)
		if err != nil {
			return false
		}
		prior := make([]float64, n)
		var sum float64
		for i := range prior {
			prior[i] = r.Float64() + 1e-6
			sum += prior[i]
		}
		for i := range prior {
			prior[i] /= sum
		}
		priv, err := Privacy(m, prior)
		if err != nil {
			return false
		}
		// A ∈ [max prior, 1] so privacy ∈ [0, 1 - max prior].
		return priv >= -1e-9 && priv <= 1-BoundFloor(prior)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPrivacy10(b *testing.B) {
	m, err := rr.Warner(10, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	prior := uniformPrior(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Privacy(m, prior); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUtilityClosedForm(b *testing.B) {
	m, err := rr.Warner(10, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	prior := uniformPrior(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Utility(m, prior, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUtilityIterative quantifies the cost gap that justifies the
// paper's choice of the closed-form inversion metric inside the search loop
// (Section III-A, "being able to compute error fast at each generation is
// essential").
func BenchmarkUtilityIterative(b *testing.B) {
	m, err := rr.Warner(10, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	prior := uniformPrior(10)
	r := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EmpiricalUtilityIterative(m, prior, 1000, 1, r); err != nil {
			b.Fatal(err)
		}
	}
}
