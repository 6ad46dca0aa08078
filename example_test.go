package optrr_test

// Runnable godoc examples for the public API. Deterministic seeds make the
// outputs stable, so each doubles as a regression test.

import (
	"fmt"

	"optrr"
)

// ExampleWarner shows the classic scheme: disguise records, reconstruct the
// distribution.
func ExampleWarner() {
	m, err := optrr.Warner(3, 0.8)
	if err != nil {
		panic(err)
	}
	// Exact round trip on the true distribution: P* = M·P, P = M⁻¹·P*.
	prior := []float64{0.5, 0.3, 0.2}
	pStar, err := m.DisguisedDistribution(prior)
	if err != nil {
		panic(err)
	}
	back, err := m.EstimateInversionFromDistribution(pStar)
	if err != nil {
		panic(err)
	}
	fmt.Printf("disguised: %.3f %.3f %.3f\n", pStar[0], pStar[1], pStar[2])
	fmt.Printf("recovered: %.3f %.3f %.3f\n", back[0], back[1], back[2])
	// Output:
	// disguised: 0.450 0.310 0.240
	// recovered: 0.500 0.300 0.200
}

// ExampleEvaluate quantifies a matrix's privacy/utility trade-off.
func ExampleEvaluate() {
	m, err := optrr.Warner(4, 0.7)
	if err != nil {
		panic(err)
	}
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	ev, err := optrr.Evaluate(m, prior, 10000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("privacy %.3f, worst-case posterior %.3f\n", ev.Privacy, ev.MaxPosterior)
	// Output:
	// privacy 0.300, worst-case posterior 0.824
}

// ExampleOptimize runs a small OptRR search and picks a matrix meeting a
// privacy requirement.
func ExampleOptimize() {
	res, err := optrr.Optimize(optrr.Problem{
		Prior:       []float64{0.5, 0.3, 0.2},
		Records:     10000,
		Delta:       0.85,
		Seed:        1,
		Generations: 400,
	})
	if err != nil {
		panic(err)
	}
	m, ok := res.MatrixWithPrivacyAtLeast(0.4)
	if !ok {
		panic("no matrix at privacy 0.4")
	}
	priv, err := optrr.Privacy(m, []float64{0.5, 0.3, 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("found a matrix with privacy >= 0.4: %v\n", priv >= 0.4)
	// Output:
	// found a matrix with privacy >= 0.4: true
}

// ExampleMutualInformation cross-checks leakage with an information-theoretic
// metric.
func ExampleMutualInformation() {
	prior := []float64{0.5, 0.5}
	id := optrr.Identity(2)
	mi, err := optrr.MutualInformation(id, prior)
	if err != nil {
		panic(err)
	}
	fmt.Printf("identity leaks %.1f bit\n", mi)
	m, err := optrr.Warner(2, 0.5) // totally random for n=2? p=0.5 gives uniform output
	if err != nil {
		panic(err)
	}
	mi, err = optrr.MutualInformation(m, prior)
	if err != nil {
		panic(err)
	}
	fmt.Printf("coin-flip disguise leaks %.1f bits\n", mi)
	// Output:
	// identity leaks 1.0 bit
	// coin-flip disguise leaks 0.0 bits
}

// ExampleNewCollector shows the collection workflow: respondents randomize
// locally, the collector reconstructs with confidence intervals.
func ExampleNewCollector() {
	m, err := optrr.Warner(2, 0.75)
	if err != nil {
		panic(err)
	}
	rng := optrr.NewRand(1965)
	c := optrr.NewCollector(m, 1)
	// 20,000 respondents, 12% with the sensitive trait.
	for i := 0; i < 20000; i++ {
		value := 0
		if rng.Float64() < 0.12 {
			value = 1
		}
		r, err := optrr.NewRespondent(m, value)
		if err != nil {
			panic(err)
		}
		if err := c.Ingest(r.Report(rng)); err != nil {
			panic(err)
		}
	}
	s, err := c.Snapshot(1.96)
	if err != nil {
		panic(err)
	}
	covered := s.Estimate[1]-s.HalfWidth[1] <= 0.12 && 0.12 <= s.Estimate[1]+s.HalfWidth[1]
	fmt.Printf("true rate inside the 95%% interval: %v\n", covered)
	// Output:
	// true rate inside the 95% interval: true
}

// ExampleBreachesPrivacy screens a matrix for amplification-style breaches.
func ExampleBreachesPrivacy() {
	prior := []float64{0.9, 0.1}
	// The identity matrix exposes the rare value completely: observing it
	// raises its posterior from 0.1 to 1.0 — a (0.2, 0.8) breach.
	x, _, err := optrr.BreachesPrivacy(optrr.Identity(2), prior, 0.2, 0.8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("identity breaches at rare value %d: %v\n", x, x >= 0)
	// A moderately noisy Warner matrix keeps the rare value's posterior
	// under 0.8: no breach.
	safe, err := optrr.Warner(2, 0.6)
	if err != nil {
		panic(err)
	}
	x, _, err = optrr.BreachesPrivacy(safe, prior, 0.2, 0.8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("warner(0.6) breaches: %v\n", x >= 0)
	// Output:
	// identity breaches at rare value 1: true
	// warner(0.6) breaches: false
}
