// Collection: a live data-collection campaign. An organization wants the
// distribution of a sensitive attribute across its user base. Each user's
// device randomizes the value locally with an OptRR-optimized matrix before
// anything is sent; the collector watches its running estimate converge and
// stops as soon as the confidence interval is tight enough — collecting no
// more data than necessary.
package main

import (
	"fmt"
	"log"

	"optrr"
)

func main() {
	// The sensitive attribute: 6 categories, skewed.
	prior := []float64{0.34, 0.26, 0.17, 0.11, 0.08, 0.04}
	const (
		delta        = 0.8  // worst-case posterior bound promised to users
		targetMargin = 0.01 // stop when every category is known to ±1%
	)

	// Pick the disguise matrix: the most private optimal matrix that can
	// still hit the target margin with at most 200k reports.
	fmt.Println("optimizing the disguise matrix...")
	res, err := optrr.Optimize(optrr.Problem{
		Prior:       prior,
		Records:     100000,
		Delta:       delta,
		Seed:        8,
		Generations: 2000,
	})
	if err != nil {
		log.Fatal(err)
	}
	m, ok := res.MatrixWithPrivacyAtLeast(0.55)
	if !ok {
		log.Fatal("no matrix with privacy >= 0.55")
	}
	ev, err := optrr.Evaluate(m, prior, 100000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix: privacy %.3f, worst-case posterior %.3f\n\n", ev.Privacy, ev.MaxPosterior)

	// The campaign: users report in waves; after each wave the collector
	// re-estimates and checks its margin of error.
	rng := optrr.NewRand(80)
	c := optrr.NewCollector(m, 1)
	users := sample(prior, 400000, rng)

	const wave = 10000
	next := 0
	fmt.Println("   reports   margin(95%)   est[0]   est[1]   est[2]")
	for next < len(users) {
		end := next + wave
		if end > len(users) {
			end = len(users)
		}
		for _, v := range users[next:end] {
			resp, err := optrr.NewRespondent(m, v)
			if err != nil {
				log.Fatal(err)
			}
			if err := c.Ingest(resp.Report(rng)); err != nil {
				log.Fatal(err)
			}
		}
		next = end

		s, err := c.Snapshot(1.96)
		if err != nil {
			log.Fatal(err)
		}
		margin, err := c.MarginOfError(1.96)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %8d       %.4f    %.4f   %.4f   %.4f\n",
			s.Reports, margin, s.Estimate[0], s.Estimate[1], s.Estimate[2])
		if margin <= targetMargin {
			fmt.Printf("\ntarget margin ±%.2f reached after %d of %d users — stopping early.\n",
				targetMargin, s.Reports, len(users))
			break
		}
		if need, err := c.ReportsForMargin(targetMargin, 1.96); err == nil && s.Reports == wave {
			fmt.Printf("  (projected reports needed: ~%d)\n", need)
		}
	}

	s, err := c.Snapshot(1.96)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal estimate vs truth (never observed by the collector):")
	for k := range prior {
		fmt.Printf("  category %d: %.4f ± %.4f   (true %.4f)\n",
			k, s.Estimate[k], s.HalfWidth[k], prior[k])
	}
}

func sample(prior []float64, n int, rng *optrr.Rand) []int {
	cum := make([]float64, len(prior))
	s := 0.0
	for i, p := range prior {
		s += p
		cum[i] = s
	}
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		out[i] = len(prior) - 1
		for k, c := range cum {
			if u <= c {
				out[i] = k
				break
			}
		}
	}
	return out
}
