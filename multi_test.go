package optrr

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/rr"
)

func testMultiProblem() MultiProblem {
	return MultiProblem{
		Joint:       []float64{0.25, 0.05, 0.10, 0.15, 0.05, 0.40},
		Sizes:       []int{3, 2},
		Records:     5000,
		Delta:       0.85,
		Seed:        3,
		Generations: 50,
	}
}

func TestOptimizeMultiFacade(t *testing.T) {
	p := testMultiProblem()
	res, err := OptimizeMulti(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 || len(res.Tuples()) != len(res.Front) {
		t.Fatalf("front %d, tuples %d", len(res.Front), len(res.Tuples()))
	}
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i].Privacy < res.Front[i-1].Privacy {
			t.Fatal("multi front not sorted")
		}
	}
	// Tuple alignment: re-evaluating tuple i reproduces Front[i].
	for i, tuple := range res.Tuples() {
		priv, err := JointPrivacy(tuple, p.Joint)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(priv-res.Front[i].Privacy) > 1e-9 {
			t.Fatalf("tuple %d misaligned: privacy %v vs front %v", i, priv, res.Front[i].Privacy)
		}
		mp, err := JointMaxPosterior(tuple, p.Joint)
		if err != nil {
			t.Fatal(err)
		}
		if mp > p.Delta+1e-9 {
			t.Fatalf("tuple %d violates the record-level bound: %v", i, mp)
		}
	}
}

// TestOptimizeMultiWorkersFacade pins the facade-level determinism contract:
// the same problem at different Workers settings yields identical fronts and
// tuples.
func TestOptimizeMultiWorkersFacade(t *testing.T) {
	p := testMultiProblem()
	p.Generations = 20
	p.Workers = 1
	want, err := OptimizeMulti(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 4
	got, err := OptimizeMulti(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Front) != len(want.Front) || got.Evaluations != want.Evaluations {
		t.Fatalf("front %d evals %d, want %d/%d", len(got.Front), got.Evaluations, len(want.Front), want.Evaluations)
	}
	for i := range want.Front {
		if got.Front[i] != want.Front[i] {
			t.Fatalf("front[%d] = %+v, want %+v", i, got.Front[i], want.Front[i])
		}
		for d, m := range want.Tuples()[i] {
			if !got.Tuples()[i][d].Equal(m, 0) {
				t.Fatalf("tuple %d attribute %d differs across worker counts", i, d)
			}
		}
	}
}

// TestMultiBatchFacadeRoundTrip runs the batched pipeline end to end:
// disguise with DisguiseMultiBatch, estimate with EstimateJointInversion,
// and land near the true joint.
func TestMultiBatchFacadeRoundTrip(t *testing.T) {
	m1, err := Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Warner(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ms := []*Matrix{m1, m2}
	joint := []float64{0.25, 0.05, 0.10, 0.15, 0.05, 0.40}
	rng := NewRand(13)
	const total = 200000
	recs := make([][]int, total)
	for k := range recs {
		u := rng.Float64()
		idx := 0
		for acc := 0.0; idx < len(joint)-1; idx++ {
			acc += joint[idx]
			if u < acc {
				break
			}
		}
		recs[k] = []int{idx / 2, idx % 2}
	}
	disguised, err := DisguiseMultiBatch(ms, recs, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DisguiseMultiBatch(ms, recs, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range disguised {
		for d := range disguised[k] {
			if disguised[k][d] != again[k][d] {
				t.Fatalf("record %d attr %d differs across worker counts", k, d)
			}
		}
	}
	est, err := EstimateJointInversion(ms, disguised)
	if err != nil {
		t.Fatal(err)
	}
	for i := range joint {
		if math.Abs(est[i]-joint[i]) > 0.02 {
			t.Fatalf("cell %d: estimate %v, truth %v", i, est[i], joint[i])
		}
	}
}

func TestTupleWithPrivacyAtLeast(t *testing.T) {
	p := testMultiProblem()
	res, err := OptimizeMulti(p)
	if err != nil {
		t.Fatal(err)
	}
	mid := res.Front[len(res.Front)/2].Privacy
	tuple, ok := res.TupleWithPrivacyAtLeast(mid)
	if !ok || len(tuple) != 2 {
		t.Fatalf("no tuple at privacy %v", mid)
	}
	if _, ok := res.TupleWithPrivacyAtLeast(0.999); ok {
		t.Fatal("impossible privacy satisfied")
	}
}

func TestOptimizeMultiInfeasible(t *testing.T) {
	p := testMultiProblem()
	p.Delta = 0.1 // below the joint prior mode 0.40
	if _, err := OptimizeMulti(p); err == nil {
		t.Fatal("delta below joint mode accepted")
	}
}

func TestJointMetricsFacade(t *testing.T) {
	m1, err := Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Warner(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	joint := []float64{0.25, 0.05, 0.10, 0.15, 0.05, 0.40}
	priv, err := JointPrivacy([]*Matrix{m1, m2}, joint)
	if err != nil {
		t.Fatal(err)
	}
	if priv <= 0 || priv >= 1 {
		t.Fatalf("joint privacy = %v", priv)
	}
	util, err := JointUtility([]*Matrix{m1, m2}, joint, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if util <= 0 {
		t.Fatalf("joint utility = %v", util)
	}
}

func TestConfidenceIntervalsCoverTruth(t *testing.T) {
	// Empirical coverage check: 95% intervals from Theorem 6 variances must
	// cover the true probabilities in roughly 95% of trials.
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	m, err := Warner(4, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(31)
	const (
		records = 4000
		trials  = 300
	)
	covered, total := 0, 0
	for trial := 0; trial < trials; trial++ {
		recs := make([]int, records)
		cum := []float64{0.4, 0.7, 0.9, 1.0}
		for i := range recs {
			u := rng.Float64()
			for k, c := range cum {
				if u <= c {
					recs[i] = k
					break
				}
			}
		}
		disguised, err := m.Disguise(recs, rng)
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.EstimateInversion(disguised)
		if err != nil {
			t.Fatal(err)
		}
		half, err := ConfidenceIntervals(m, est, records, 1.96)
		if err != nil {
			t.Fatal(err)
		}
		for k := range prior {
			total++
			if est[k]-half[k] <= prior[k] && prior[k] <= est[k]+half[k] {
				covered++
			}
		}
	}
	rate := float64(covered) / float64(total)
	if rate < 0.90 || rate > 0.99 {
		t.Fatalf("95%% CI empirical coverage = %v", rate)
	}
}

func TestConfidenceIntervalsValidation(t *testing.T) {
	m, err := Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := ConfidenceIntervals(m, []float64{0.5, 0.3, 0.2}, 100, z); err == nil {
			t.Fatalf("z = %v accepted", z)
		}
	}
	if _, err := ConfidenceIntervals(m, []float64{0.5, 0.3, 0.2}, 0, 1.96); err == nil {
		t.Fatal("records = 0 accepted")
	}
}

// TestEstimateJointInversionWideTuple: 64 binary attributes have 2^64 joint
// cells, more than an int can count; the estimate is refused with
// rr.ErrShape instead of indexing a wrapped joint size.
func TestEstimateJointInversionWideTuple(t *testing.T) {
	ms := make([]*Matrix, 64)
	for d := range ms {
		m, err := Warner(2, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		ms[d] = m
	}
	records := [][]int{make([]int, 64), make([]int, 64)}
	if _, err := EstimateJointInversion(ms, records); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("err = %v, want rr.ErrShape", err)
	}
}
