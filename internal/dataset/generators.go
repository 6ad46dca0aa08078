package dataset

import (
	"fmt"
	"math"

	"optrr/internal/mathx"
	"optrr/internal/randx"
)

// Generator produces a named synthetic single-attribute categorical data set
// with a known prior shape. The paper's experiments (Section VI-C) use
// 10 categories and 10,000 records.
type Generator struct {
	// Name identifies the generator in experiment output.
	Name string
	// Prior returns the exact category prior the generator targets, for n
	// categories. Sampled data sets converge to this prior as N grows.
	Prior func(n int) []float64
}

// Generate draws N records from the generator's prior over n categories.
func (g Generator) Generate(n, records int, r *randx.Source) (*Categorical, error) {
	p := g.Prior(n)
	if err := ValidateDistribution(p); err != nil {
		return nil, fmt.Errorf("dataset: generator %q: %w", g.Name, err)
	}
	return Sample(p, records, r)
}

// NamedGenerator returns the generator a CLI's -dist flag names: normal
// (DefaultNormal over n categories), gamma (α = 1, β = 2), uniform, zipf
// (s = 1), bimodal or adult (DefaultAdult). It reports false for any other
// name.
func NamedGenerator(name string, n int) (Generator, bool) {
	switch name {
	case "normal":
		return DefaultNormal(n), true
	case "gamma":
		return GammaGenerator(1, 2), true
	case "uniform":
		return UniformGenerator(), true
	case "zipf":
		return ZipfGenerator(1), true
	case "bimodal":
		return BimodalGenerator(), true
	case "adult":
		return DefaultAdult().Generator(), true
	}
	return Generator{}, false
}

// NormalGenerator returns the paper's "normal distribution" prior: a normal
// density with the given mean and standard deviation evaluated at category
// midpoints 0..n-1 and normalized. The paper's Figure 4 data sets use a bell
// shape centred on the middle categories; mean (n−1)/2 and sd n/5 reproduce
// that shape for n = 10.
func NormalGenerator(mean, stddev float64) Generator {
	return Generator{
		Name: fmt.Sprintf("normal(mean=%.3g,sd=%.3g)", mean, stddev),
		Prior: func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				z := (float64(i) - mean) / stddev
				w[i] = math.Exp(-z * z / 2)
			}
			p, err := Normalize(w)
			if err != nil {
				panic(fmt.Sprintf("dataset: normal prior invalid: %v", err))
			}
			return p
		},
	}
}

// DefaultNormal is the Figure 4 prior: bell-shaped over the category range.
func DefaultNormal(n int) Generator {
	return NormalGenerator(float64(n-1)/2, float64(n)/5)
}

// GammaGenerator returns the paper's gamma prior (Figure 5(a) uses α = 1.0,
// β = 2.0): the Gamma(α, β) density integrated over n equi-width bins that
// cover [0, cover·α·β], normalized. Binning the density (rather than point
// evaluation) keeps the α = 1 case well defined at x = 0.
func GammaGenerator(alpha, beta float64) Generator {
	return Generator{
		Name: fmt.Sprintf("gamma(alpha=%.3g,beta=%.3g)", alpha, beta),
		Prior: func(n int) []float64 {
			// Cover roughly the mass up to mean + 4 standard deviations.
			upper := alpha*beta + 4*math.Sqrt(alpha)*beta
			width := upper / float64(n)
			w := make([]float64, n)
			for i := range w {
				lo := float64(i) * width
				hi := lo + width
				w[i] = mathx.GammaCDF(alpha, beta, hi) - mathx.GammaCDF(alpha, beta, lo)
			}
			// The residual tail mass beyond `upper` goes into the last bin,
			// mirroring the clamping behaviour of Discretize.
			w[n-1] += 1 - mathx.GammaCDF(alpha, beta, upper)
			p, err := Normalize(w)
			if err != nil {
				panic(fmt.Sprintf("dataset: gamma prior invalid: %v", err))
			}
			return p
		},
	}
}

// UniformGenerator returns the discrete uniform prior of Figure 5(b).
func UniformGenerator() Generator {
	return Generator{
		Name: "uniform",
		Prior: func(n int) []float64 {
			p := make([]float64, n)
			for i := range p {
				p[i] = 1 / float64(n)
			}
			return p
		},
	}
}

// ZipfGenerator returns a Zipf(s) prior: p_i ∝ 1/(i+1)^s. Heavy skew like
// this stresses the privacy floor of Theorem 5 (max prior probability).
func ZipfGenerator(s float64) Generator {
	return Generator{
		Name: fmt.Sprintf("zipf(s=%.3g)", s),
		Prior: func(n int) []float64 {
			w := make([]float64, n)
			for i := range w {
				w[i] = math.Pow(float64(i+1), -s)
			}
			p, err := Normalize(w)
			if err != nil {
				panic(fmt.Sprintf("dataset: zipf prior invalid: %v", err))
			}
			return p
		},
	}
}

// BimodalGenerator returns a two-bump prior (mixture of two discretized
// normals), an adversarial shape for symmetric RR schemes.
func BimodalGenerator() Generator {
	return Generator{
		Name: "bimodal",
		Prior: func(n int) []float64 {
			m1 := float64(n) / 4
			m2 := 3 * float64(n) / 4
			sd := float64(n) / 10
			w := make([]float64, n)
			for i := range w {
				z1 := (float64(i) - m1) / sd
				z2 := (float64(i) - m2) / sd
				w[i] = math.Exp(-z1*z1/2) + math.Exp(-z2*z2/2)
			}
			p, err := Normalize(w)
			if err != nil {
				panic(fmt.Sprintf("dataset: bimodal prior invalid: %v", err))
			}
			return p
		},
	}
}
