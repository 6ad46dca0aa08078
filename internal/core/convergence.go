package core

import (
	"math"

	"optrr/internal/pareto"
)

// This file adds the convergence layer of the observability seam: a
// per-generation snapshot of *search quality* — has the front stopped
// advancing, how hard is the Ω set churning — complementing the throughput
// counters of observe.go. The paper's experiments (Section VI) judge runs by
// the front they reach and how many generations it takes to get there; these
// snapshots are the raw material for both measurements (and for the
// cold-vs-warm-start comparisons cmd/rrtrace performs on recorded traces).

// convergenceStallWindow is the default number of generations without a
// hypervolume improvement after which a run is flagged as stalled, used when
// Config.StagnationLimit does not define a window of its own. It is
// deliberately smaller than typical generation budgets: the flag is a
// telemetry signal ("this run has likely converged"), not a termination
// criterion.
const convergenceStallWindow = 50

// convergenceTol is the relative hypervolume gain below which a generation
// does not count as an improvement — float noise from re-sorted fronts must
// not reset the stall clock.
const convergenceTol = 1e-9

// Convergence is the per-generation search-quality snapshot. It is carried
// on Stats, emitted as the "optimizer.convergence" trace event, and mirrored
// into registry gauges (see observe.go).
type Convergence struct {
	// Generation is the zero-based index of the completed generation.
	Generation int
	// Hypervolume is the archive front's hypervolume against the run's
	// fixed reference point (0, refUtility) — identical to
	// Stats.FrontHypervolume, repeated here so the snapshot is
	// self-contained.
	Hypervolume float64
	// BestHypervolume is the largest hypervolume any generation has reached
	// so far; monotone non-decreasing over a run.
	BestHypervolume float64
	// Improved reports whether this generation advanced BestHypervolume by
	// more than float noise.
	Improved bool
	// SinceImprovement is the number of generations elapsed since the last
	// improvement (0 when Improved).
	SinceImprovement int
	// Stalled is set once SinceImprovement reaches the stall window
	// (Config.StagnationLimit when positive, else convergenceStallWindow):
	// the search has likely converged.
	Stalled bool
	// OmegaInserts and OmegaEvictions are the Ω-archive churn of this
	// generation: entries stored and entries displaced (see Omega.Churn).
	// Falling eviction rates are an independent convergence signal — the
	// optimal set has settled even if the front's hypervolume still creeps.
	OmegaInserts   int
	OmegaEvictions int
	// Spread is pareto.Spread of the archive front: 0 means evenly spaced
	// trade-off points, larger means clumps and gaps.
	Spread float64
}

// convergenceTracker folds per-generation fronts into Convergence snapshots.
// It is owned by the optimizer's Run goroutine; zero value is not ready —
// use newConvergenceTracker.
type convergenceTracker struct {
	stallWindow   int
	bestHV        float64
	lastImproved  int
	lastInserts   int
	lastEvictions int
}

// newConvergenceTracker returns a tracker with the given stall window;
// window <= 0 selects convergenceStallWindow.
func newConvergenceTracker(window int) convergenceTracker {
	if window <= 0 {
		window = convergenceStallWindow
	}
	return convergenceTracker{stallWindow: window, bestHV: math.Inf(-1), lastImproved: -1}
}

// observe folds one completed generation into the tracker and returns its
// snapshot. front is the archive in objective space; hv its hypervolume
// against the run's fixed reference point; omega the run's Ω, of any genome
// type.
func (t *convergenceTracker) observe(gen int, hv float64, omega interface{ Churn() (int, int) }, front []pareto.Point) Convergence {
	improved := false
	switch {
	case math.IsNaN(hv):
		// A NaN hypervolume carries no signal; the stall clock keeps
		// ticking.
	case t.lastImproved < 0:
		// First usable observation always improves on the empty history.
		improved = true
	default:
		improved = hv-t.bestHV > convergenceTol*math.Max(1, math.Abs(t.bestHV))
	}
	if improved {
		t.bestHV = hv
		t.lastImproved = gen
	}
	since := gen - t.lastImproved
	if t.lastImproved < 0 {
		// No generation has improved yet (possible only when the first
		// fronts have non-finite hypervolume): count from the start.
		since = gen + 1
	}
	inserts, evictions := omega.Churn()
	c := Convergence{
		Generation:       gen,
		Hypervolume:      hv,
		BestHypervolume:  t.bestHV,
		Improved:         improved,
		SinceImprovement: since,
		Stalled:          since >= t.stallWindow,
		OmegaInserts:     inserts - t.lastInserts,
		OmegaEvictions:   evictions - t.lastEvictions,
		Spread:           pareto.Spread(front),
	}
	t.lastInserts, t.lastEvictions = inserts, evictions
	return c
}
