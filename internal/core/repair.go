package core

import (
	"math"

	"optrr/internal/metrics"
)

// This file implements "meeting the privacy bound" (Section V-G): after
// crossover and mutation, every matrix is pushed back under the worst-case
// posterior bound max P(X | Y) ≤ δ of Equation (9).
//
// For an entry (row r, column c) the posterior can be written
// θ·P_c / (θ·P_c + R) with θ = θ_{r,c} and R = Σ_{i≠c} θ_{r,i}·P_i the
// disguised mass arriving at row r from other originals. The value that
// makes the posterior exactly δ is therefore
//
//	θ'_{r,c} = δ·R / (P_c·(1 − δ)).
//
// Following the paper, a violating element (posterior > δ) is decreased to
// its θ', and the removed mass is added to the other elements of the same
// column proportionally to each element's own slack θ'_{k,c} − θ_{k,c} —
// how much that element could still grow before itself hitting the bound.
// Slack-proportional redistribution steers mass into rows that already
// receive plenty of disguised mass from other categories, which is what
// allows near-deterministic asymmetric matrices (the low-privacy end of the
// Pareto front) to survive the repair. Because fixing one violation can
// create another, the repair iterates on the currently worst violation until
// the bound holds or the round budget is exhausted.

// repairRoundsPerEntry bounds the fix-worst-violation iteration relative to
// the matrix size. Violations shrink geometrically in practice; 25·n² rounds
// is far beyond what any matrix in the test corpus needs.
const repairRoundsPerEntry = 25

// RepairStats quantifies the work one MeetBound call performed, for
// observability: a zero value means the genome was already feasible.
type RepairStats struct {
	// Rounds is the number of fix-worst-violation iterations applied.
	Rounds int
	// PushBack is the total probability mass removed from violating entries
	// across all rounds — the magnitude of the repair.
	PushBack float64
	// Blended reports that the iterative repair cycled and the
	// blend-toward-uniform fallback finished the job.
	Blended bool
}

// MeetBound adjusts the genome in place so that, under the given prior, the
// maximum posterior does not exceed delta. It reports whether the bound was
// achieved. By Theorem 5 the bound is unachievable when delta is below the
// prior mode; MeetBound detects that case immediately and returns false.
func MeetBound(g Genome, prior []float64, delta float64, symmetric bool) bool {
	ok, _ := MeetBoundStats(g, prior, delta, symmetric)
	return ok
}

// MeetBoundStats is MeetBound reporting how much repair work was done.
func MeetBoundStats(g Genome, prior []float64, delta float64, symmetric bool) (bool, RepairStats) {
	return meetBoundStats(g, prior, delta, symmetric, nil)
}

// meetBoundStats is the scratch-threaded implementation: slack, when
// non-nil, is the caller's reusable per-column slack buffer (length ≥ n), so
// the repair loop allocates nothing. A nil slack allocates one buffer for
// the whole call. The arithmetic is identical either way.
func meetBoundStats(g Genome, prior []float64, delta float64, symmetric bool, slack []float64) (bool, RepairStats) {
	var st RepairStats
	n := g.N()
	if n == 0 || len(prior) != n {
		return false, st
	}
	if delta <= 0 || delta >= 1 {
		// delta >= 1 always holds; delta <= 0 never does.
		return delta >= 1, st
	}
	if metrics.BoundFloor(prior) > delta+metrics.BoundTolerance {
		return false, st
	}
	if len(slack) < n {
		slack = make([]float64, n)
	}
	maxRounds := repairRoundsPerEntry * n * n
	for round := 0; round < maxRounds; round++ {
		r, c, post := worstPosterior(g, prior)
		if post <= delta+metrics.BoundTolerance {
			return true, st
		}
		st.Rounds++
		st.PushBack += repairEntry(g, prior, delta, r, c, slack)
		if symmetric {
			g.Symmetrize()
		}
	}
	if _, _, post := worstPosterior(g, prior); post <= delta+metrics.BoundTolerance {
		return true, st
	}
	st.Blended = true
	return blendTowardUniform(g, prior, delta), st
}

// blendTowardUniform is the repair fallback for bounds so tight that the
// iterative fix cycles: the uniform matrix's posteriors equal the prior, so
// any δ at or above the prior mode is satisfied at blend factor 1, and the
// smallest sufficient factor is found by bisection. The blend preserves
// column stochasticity (a convex combination of stochastic columns) and, for
// symmetric inputs, symmetry.
func blendTowardUniform(g Genome, prior []float64, delta float64) bool {
	n := g.N()
	u := 1 / float64(n)
	meets := func(t float64) bool {
		worst := 0.0
		for r := 0; r < n; r++ {
			var pStar float64
			for i := 0; i < n; i++ {
				pStar += ((1-t)*g[i][r] + t*u) * prior[i]
			}
			if pStar <= 0 {
				continue
			}
			for i := 0; i < n; i++ {
				post := ((1-t)*g[i][r] + t*u) * prior[i] / pStar
				if post > worst {
					worst = post
				}
			}
		}
		return worst <= delta+metrics.BoundTolerance
	}
	if !meets(1) {
		return false // delta below the prior mode; caller already checked
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if meets(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	for _, col := range g {
		for j := range col {
			col[j] = (1-hi)*col[j] + hi*u
		}
	}
	return true
}

// repairEntry lowers g[c][r] to its bound target and redistributes the
// removed mass over the rest of column c proportionally to per-entry slack.
// It returns the mass actually moved off the violating entry. slack is a
// caller-provided buffer of length ≥ n.
func repairEntry(g Genome, prior []float64, delta float64, r, c int, slack []float64) float64 {
	n := g.N()
	col := g[c]
	target := boundTarget(g, prior, delta, r, c)
	cur := col[r]
	if target >= cur {
		// Numerically stuck (rest ≈ 0 while the prior mode allows the
		// bound): force a decrease toward uniformity so later rounds can
		// make progress.
		target = cur * 0.9
	}
	a := cur - target

	// Slack of every other entry in column c: how far it can grow before
	// its own posterior hits delta (capped by the simplex headroom 1−θ).
	// The violating entry's slot must be zero: the redistribution loops
	// below add a·slack[k]/total to every entry including k == r.
	slack = slack[:n]
	slack[r] = 0
	var total float64
	for k := 0; k < n; k++ {
		if k == r {
			continue
		}
		t := boundTarget(g, prior, delta, k, c)
		if t > 1 {
			t = 1
		}
		s := t - col[k]
		if s < 0 {
			s = 0
		}
		if h := 1 - col[k]; s > h {
			s = h
		}
		slack[k] = s
		total += s
	}

	col[r] = target
	if total <= 0 {
		// No slack anywhere: fall back to headroom-proportional filling and
		// let subsequent rounds repair any violation this creates.
		var headroom float64
		for k := 0; k < n; k++ {
			if k != r {
				headroom += 1 - col[k]
			}
		}
		if headroom <= 0 {
			col[r] = cur // cannot move any mass; undo
			return 0
		}
		for k := 0; k < n; k++ {
			if k != r {
				col[k] += a * (1 - col[k]) / headroom
			}
		}
		return a
	}
	if a > total {
		// Fill every slack completely and park the remainder back on the
		// violating entry; the next rounds shrink it further.
		for k := 0; k < n; k++ {
			col[k] += slack[k]
		}
		col[r] += a - total
		return total
	}
	for k := 0; k < n; k++ {
		col[k] += a * slack[k] / total
	}
	return a
}

// boundTarget returns the value θ'_{r,c} at which the posterior
// P(X = c_c | Y = c_r) equals delta, holding the rest of the genome fixed.
func boundTarget(g Genome, prior []float64, delta float64, r, c int) float64 {
	n := g.N()
	var rest float64
	for i := 0; i < n; i++ {
		if i != c {
			rest += g[i][r] * prior[i]
		}
	}
	if prior[c] <= 0 {
		return 1 // a zero-prior category can never violate the bound
	}
	return delta * rest / (prior[c] * (1 - delta))
}

// worstPosterior returns the location (row, column) and value of the largest
// posterior P(X = c_col | Y = c_row) implied by the genome and prior.
// Unobservable rows (zero disguised mass) are skipped.
func worstPosterior(g Genome, prior []float64) (row, col int, value float64) {
	n := g.N()
	value = -1
	for r := 0; r < n; r++ {
		var pStar float64
		for i := 0; i < n; i++ {
			pStar += g[i][r] * prior[i]
		}
		if pStar <= 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if post := g[i][r] * prior[i] / pStar; post > value {
				row, col, value = r, i, post
			}
		}
	}
	if value < 0 {
		value = math.Inf(1) // no observable row: treat as unrepairable
	}
	return row, col, value
}
