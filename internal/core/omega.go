package core

import (
	"optrr/internal/metrics"
	"optrr/internal/pareto"
)

// individual couples a genome of type G with its objective-space evaluation.
type individual[G any] struct {
	Genome G
	Eval   metrics.Evaluation
}

// Individual couples a genome with its objective-space evaluation.
type Individual = individual[Genome]

// Point returns the individual's image in objective space: the canonical
// privacy/utility pair plus any configured extra objectives (already in
// canonical minimized form, see metrics.Evaluation.Extra).
func (ind individual[G]) Point() pareto.Point {
	return pareto.NewPoint(ind.Eval.Privacy, ind.Eval.Utility, ind.Eval.Extra...)
}

// cloner constrains the engine's genome types: Ω keeps deep copies, because
// the search goes on mutating the genomes it offers.
type cloner[G any] interface{ Clone() G }

// Omega is the paper's "optimal set" (Section V-H): a large archive indexed
// by privacy value that collects good matrices the bounded population and
// archive would otherwise discard. Privacy lives in [0, 1); an Omega of size
// S buckets it into S equal bins, each remembering the matrix with the best
// (lowest) utility seen for that privacy level. Updates are O(1), so Omega
// can be much larger than the evolving sets without affecting the cubic
// environmental-selection cost.
type Omega = optimalSet[Genome]

// optimalSet is Ω over genomes of type G: the single-attribute search keeps
// Genomes in it, the multi-attribute search genome tuples.
type optimalSet[G cloner[G]] struct {
	bins []*individual[G]

	// Cumulative churn counters: inserts counts every entry stored (first
	// occupation or replacement of a bin), evictions counts the subset that
	// displaced an existing entry. inserts − evictions is therefore the
	// number of occupied bins. The convergence telemetry diffs these across
	// generations — high eviction rates mean the search is still reshuffling
	// the optimal set, a churn signal the paper's Section V-H update has no
	// other way to expose.
	inserts   int
	evictions int
}

// NewOmega returns an optimal set with the given number of privacy bins.
// Size 0 disables the set (every operation becomes a no-op), which is the
// paper-vs-plain-SPEA2 ablation switch.
func NewOmega(size int) *Omega { return newOptimalSet[Genome](size) }

// newOptimalSet is NewOmega over genomes of type G.
func newOptimalSet[G cloner[G]](size int) *optimalSet[G] {
	if size <= 0 {
		return &optimalSet[G]{}
	}
	return &optimalSet[G]{bins: make([]*individual[G], size)}
}

// Enabled reports whether the set is active.
func (o *optimalSet[G]) Enabled() bool { return len(o.bins) > 0 }

// Size returns the number of privacy bins.
func (o *optimalSet[G]) Size() int { return len(o.bins) }

// Len returns the number of occupied bins.
func (o *optimalSet[G]) Len() int {
	n := 0
	for _, b := range o.bins {
		if b != nil {
			n++
		}
	}
	return n
}

// binIndex maps a privacy value to its bin. Values outside [0, 1) clamp.
func (o *optimalSet[G]) binIndex(privacy float64) int {
	i := int(privacy * float64(len(o.bins)))
	if i < 0 {
		return 0
	}
	if i >= len(o.bins) {
		return len(o.bins) - 1
	}
	return i
}

// Update offers an individual to the set; the individual is stored (cloned)
// if its bin is empty or it improves the bin's utility. It reports whether
// the set changed. The rule is deliberately unchanged under extra
// objectives: bins index privacy and keep the utility-best entry exactly as
// in the paper, so the canonical search is bit-for-bit stable; extras enter
// through FrontSnapshot, whose dominance filter runs over the full k-dim
// points.
func (o *optimalSet[G]) Update(ind individual[G]) bool {
	if !o.Enabled() {
		return false
	}
	i := o.binIndex(ind.Eval.Privacy)
	cur := o.bins[i]
	if cur != nil && cur.Eval.Utility <= ind.Eval.Utility {
		return false
	}
	if cur != nil {
		o.evictions++
	}
	o.inserts++
	clone := individual[G]{Genome: ind.Genome.Clone(), Eval: ind.Eval}
	o.bins[i] = &clone
	return true
}

// Churn returns the cumulative insert and eviction counts since
// construction. Per-generation churn is the difference between two
// consecutive readings.
func (o *optimalSet[G]) Churn() (inserts, evictions int) {
	return o.inserts, o.evictions
}

// UpdateAll offers every individual and returns how many bins improved.
func (o *optimalSet[G]) UpdateAll(inds []individual[G]) int {
	changed := 0
	for _, ind := range inds {
		if o.Update(ind) {
			changed++
		}
	}
	return changed
}

// Fold offers every occupied entry of src to o under the normal Update rule
// and returns how many bins improved. Unlike UpdateAll over src.Snapshot()
// it clones nothing up front — only entries that actually land in a bin pay
// for a copy — which keeps the island-model epoch fold cheap.
func (o *optimalSet[G]) Fold(src *optimalSet[G]) int {
	changed := 0
	for _, b := range src.bins {
		if b != nil && o.Update(*b) {
			changed++
		}
	}
	return changed
}

// ImproveArchive is the reverse direction of the paper's three-set update:
// each archive member whose privacy bin holds a strictly better (lower
// utility) Ω entry is replaced by a clone of that entry. It returns the
// number of replacements.
func (o *optimalSet[G]) ImproveArchive(archive []individual[G]) int {
	if !o.Enabled() {
		return 0
	}
	replaced := 0
	for k := range archive {
		i := o.binIndex(archive[k].Eval.Privacy)
		best := o.bins[i]
		if best != nil && best.Eval.Utility < archive[k].Eval.Utility {
			archive[k] = individual[G]{Genome: best.Genome.Clone(), Eval: best.Eval}
			replaced++
		}
	}
	return replaced
}

// Snapshot returns the occupied entries (cloned), ordered by bin (ascending
// privacy).
func (o *optimalSet[G]) Snapshot() []individual[G] {
	var out []individual[G]
	for _, b := range o.bins {
		if b != nil {
			out = append(out, individual[G]{Genome: b.Genome.Clone(), Eval: b.Eval})
		}
	}
	return out
}

// FrontSnapshot returns the Pareto-optimal subset of the occupied entries,
// sorted by ascending privacy — the paper's final output.
func (o *optimalSet[G]) FrontSnapshot() []individual[G] {
	refs := o.frontRefs()
	out := make([]individual[G], len(refs))
	for i, ind := range refs {
		out[i] = individual[G]{Genome: ind.Genome.Clone(), Eval: ind.Eval}
	}
	return out
}

// spread returns k occupied entries evenly spaced across the privacy bins,
// without cloning — the cheap privacy-diverse sample the island migration
// exports. Unlike frontRefs it skips the O(n²) dominance filter: bins
// already hold the utility-best entry per privacy level, so an evenly
// spaced pick is near-optimal at O(bins) cost. The returned genomes alias
// the live bins and must be cloned before retention.
func (o *optimalSet[G]) spread(k int) []individual[G] {
	var all []individual[G]
	for _, b := range o.bins {
		if b != nil {
			all = append(all, *b)
		}
	}
	if len(all) <= k || k < 2 {
		return all
	}
	out := make([]individual[G], 0, k)
	for j := 0; j < k; j++ {
		out = append(out, all[j*(len(all)-1)/(k-1)])
	}
	return out
}

// frontRefs is FrontSnapshot without the clones: the returned genomes alias
// the live bins, so callers must either not retain them past the next Update
// or clone what they keep.
func (o *optimalSet[G]) frontRefs() []individual[G] {
	var all []individual[G]
	for _, b := range o.bins {
		if b != nil {
			all = append(all, *b)
		}
	}
	pts := make([]pareto.Point, len(all))
	for i, ind := range all {
		pts[i] = ind.Point()
	}
	idx := pareto.Front(pts)
	out := make([]individual[G], 0, len(idx))
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}
