// Package emoo implements the SPEA2 machinery of Zitzler, Laumanns and
// Thiele that the paper builds its optimizer on (Section V): fitness
// assignment from dominance strength and nearest-neighbour density,
// environmental selection with the iterative truncation operator, and
// binary-tournament mating selection.
//
// The package is genome-agnostic: it works purely on objective-space points
// (pareto.Point) and index slices, so internal/core can drive it with RR
// matrices and tests can drive it with synthetic point clouds.
//
// The operators run on a reusable Scratch: flat dominance and distance
// buffers instead of per-call [][]-allocations, k-th-element selection
// instead of full row sorts for the density estimate, and incremental
// nearest-neighbour maintenance during truncation. The package-level
// functions remain as one-shot conveniences over a throwaway Scratch and the
// scratch paths are bit-for-bit identical to them (see the reference
// equivalence tests).
package emoo

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// Config controls the SPEA2 operators.
type Config struct {
	// KNearest is the k in the k-th-nearest-neighbour density estimate. The
	// paper sets k = 1 ("k is usually set to 1 in practice"); zero means 1.
	KNearest int
	// Normalize rescales each objective by its range over the current point
	// set before any distance computation. The paper's two objectives live
	// on very different scales (privacy ≈ 0.5, MSE ≈ 1e-4), so without
	// normalization density and truncation would ignore utility entirely.
	Normalize bool
}

func (c Config) k() int {
	if c.KNearest <= 0 {
		return 1
	}
	return c.KNearest
}

// Fitness holds the per-individual fitness decomposition of SPEA2.
type Fitness struct {
	// Strength[i] is S(i): how many individuals i dominates.
	Strength []int
	// Raw[i] is R(i): the summed strength of everyone dominating i. Zero
	// means non-dominated.
	Raw []float64
	// Density[i] is D(i) = 1/(σ_i^k + 2) ∈ (0, 0.5].
	Density []float64
	// Value[i] is F(i) = R(i) + D(i); lower is better.
	Value []float64
}

// Scratch holds the reusable state behind SPEA2 fitness assignment and
// environmental selection: flat dominance and distance matrices, the
// selection buffers, the incremental truncation structures and the
// per-objective normalization scales. A persistent Scratch makes the
// per-generation selection loop allocation-free in steady state.
//
// Slices returned by the Scratch methods (Fitness fields, selection index
// slices) alias the scratch buffers: they are valid until the next call on
// the same Scratch. A Scratch is not safe for concurrent use.
type Scratch struct {
	// Fitness buffers.
	strength []int
	raw      []float64
	density  []float64
	value    []float64
	dom      []bool
	dist     []float64 // flat n×n pairwise distances
	kbuf     []float64 // k-th-element selection buffer

	// Selection buffers.
	sel  []int
	rest []int

	// Truncation state.
	live   []int     // working copy of the selected index set
	alive  []bool    // per-slot liveness
	tdist  []float64 // flat m×m distances over the selected slots
	vec    []float64 // per-slot sorted distance vectors, stride m
	vecLen []int

	// Normalization: one scale per objective (see objectiveScales), the
	// ranges they were last computed from, and truncation's buffer for
	// detecting a scale change.
	scales    []float64
	scalesNew []float64
	ranges    objectiveRanges
}

// NewScratch returns an empty scratch; buffers grow on demand and are reused
// across calls.
func NewScratch() *Scratch { return &Scratch{} }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// AssignFitness computes SPEA2 fitness for the union of archive and
// population points (Section V-B of the paper). The returned Fitness slices
// alias the scratch and are valid until the next AssignFitness call.
//
// Each O(n²) pass is a plain loop in its own function. Written inline in one
// body, the loops shared the register file and spilled their counters,
// which measured about 20% slower at n = 80.
func (s *Scratch) AssignFitness(pts []pareto.Point, cfg Config) Fitness {
	n := len(pts)
	s.strength = growInts(s.strength, n)
	s.raw = growFloats(s.raw, n)
	s.density = growFloats(s.density, n)
	s.value = growFloats(s.value, n)
	f := Fitness{Strength: s.strength, Raw: s.raw, Density: s.density, Value: s.value}
	if n == 0 {
		return f
	}
	s.dom = growBools(s.dom, n*n)
	s.dist = growFloats(s.dist, n*n)
	s.kbuf = growFloats(s.kbuf, n)
	s.scales = objectiveScales(s.scales, &s.ranges, pts, nil, nil, cfg.Normalize)
	strengths(pts, s.dom, f.Strength)
	rawFitness(s.dom, f.Strength, f.Raw)
	distances(pts, s.scales, s.dist)
	densities(s.dist, min(cfg.k(), n-1), s.kbuf, f)
	return f
}

// strengths fills the flat n×n dom, row i marking the points pts[i]
// dominates, and strength[i], their count.
//
// Two-objective points, the paper's case, run the dominance test written
// out on Privacy and Utility; it mirrors Point.Dominates exactly, NaN
// behaviour included. Point.Dominates inlines, but its extra-axis loop made
// this pass about twice as slow at n = 80, so only points with extra
// objectives take it. distances and liveDistances make the same split.
func strengths(pts []pareto.Point, dom []bool, strength []int) {
	n := len(pts)
	two := pts[0].Dim() == 2
	for i := range pts {
		st := 0
		ri := dom[i*n : (i+1)*n]
		if two {
			pp, pu := pts[i].Privacy, pts[i].Utility
			for j := range ri {
				q := &pts[j]
				d := false
				if i != j && !(pp < q.Privacy || pu > q.Utility) {
					d = pp > q.Privacy || pu < q.Utility
				}
				ri[j] = d
				if d {
					st++
				}
			}
		} else {
			for j := range ri {
				d := i != j && pts[i].Dominates(pts[j])
				ri[j] = d
				if d {
					st++
				}
			}
		}
		strength[i] = st
	}
}

// rawFitness sets raw[i] to the summed strength of the points dominating i,
// added in ascending index order.
func rawFitness(dom []bool, strength []int, raw []float64) {
	n := len(raw)
	for i := range raw {
		var r float64
		for j := 0; j < n; j++ {
			if dom[j*n+i] {
				r += float64(strength[j])
			}
		}
		raw[i] = r
	}
}

// distances fills the flat n×n dist with the pairwise distances of pts
// under the per-objective scales; the smaller index of each pair writes
// both cells.
func distances(pts []pareto.Point, scales, dist []float64) {
	n := len(pts)
	if pts[0].Dim() == 2 {
		scaleP, scaleU := scales[0], scales[1]
		for i := range pts {
			dist[i*n+i] = 0
			for j := i + 1; j < n; j++ {
				dp := (pts[i].Privacy - pts[j].Privacy) * scaleP
				du := (pts[i].Utility - pts[j].Utility) * scaleU
				d := math.Sqrt(dp*dp + du*du)
				dist[i*n+j] = d
				dist[j*n+i] = d
			}
		}
		return
	}
	for i := range pts {
		dist[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			d := scaledDistance(pts[i], pts[j], scales)
			dist[i*n+j] = d
			dist[j*n+i] = d
		}
	}
}

// densities sets f.Density[i] = 1/(σ+2), where σ is the distance from i to
// its k-th nearest other point, and f.Value[i] = f.Raw[i] + f.Density[i].
// kbuf holds at least n-1 values.
func densities(dist []float64, k int, kbuf []float64, f Fitness) {
	n := len(f.Density)
	for i := range f.Density {
		var sigma float64
		if n > 1 {
			row := dist[i*n : (i+1)*n]
			if k == 1 {
				// A plain minimum, no selection needed.
				sigma = math.Inf(1)
				for j, d := range row {
					if j != i && d < sigma {
						sigma = d
					}
				}
			} else {
				buf := kbuf[:0]
				for j, d := range row {
					if j != i {
						buf = append(buf, d)
					}
				}
				sigma = kthSmallest(buf, k)
			}
		}
		f.Density[i] = 1 / (sigma + 2)
		f.Value[i] = f.Raw[i] + f.Density[i]
	}
}

// AssignFitness is the one-shot form of (*Scratch).AssignFitness: the
// returned Fitness owns freshly allocated slices.
func AssignFitness(pts []pareto.Point, cfg Config) Fitness {
	return NewScratch().AssignFitness(pts, cfg)
}

// kthSmallest returns the k-th smallest value (1-based) of buf, which it
// partially reorders in place: Hoare quickselect with a median-of-three
// pivot. Pure element selection — the result is the exact value sorting
// would put at index k-1.
func kthSmallest(buf []float64, k int) float64 {
	if len(buf) == 0 {
		return 0
	}
	target := k - 1
	lo, hi := 0, len(buf)-1
	for lo < hi {
		// Median-of-three pivot, moved to buf[lo].
		mid := lo + (hi-lo)/2
		if buf[mid] < buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] < buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[hi] < buf[mid] {
			buf[hi], buf[mid] = buf[mid], buf[hi]
		}
		pivot := buf[mid]
		i, j := lo, hi
		for i <= j {
			for buf[i] < pivot {
				i++
			}
			for buf[j] > pivot {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			return buf[target]
		}
	}
	return buf[target]
}

// scaledDistance is the k-dim generalization of the two-objective distance
// expression: per-axis scaled differences, squares summed in axis order, one
// square root.
func scaledDistance(a, b pareto.Point, scales []float64) float64 {
	var sum float64
	for t, sc := range scales {
		d := (a.At(t) - b.At(t)) * sc
		sum += d * d
	}
	return math.Sqrt(sum)
}

// objectiveScales fills dst, grown to one entry per objective, with each
// objective's normalization factor 1/range and returns it. When normalize
// is on, it first folds r over pts, or, when live is non-nil, over
// pts[live[a]] for every slot a with alive[a] set. A factor is 1 when
// normalize is off or the range is not positive, which includes a single
// point.
func objectiveScales(dst []float64, r *objectiveRanges, pts []pareto.Point, live []int, alive []bool, normalize bool) []float64 {
	dst = growFloats(dst, pts[0].Dim())
	for t := range dst {
		dst[t] = 1
	}
	if !normalize {
		return dst
	}
	r.fold(pts, live, alive, len(dst))
	for t := range dst {
		if w := r.hi[t] - r.lo[t]; w > 0 {
			dst[t] = 1 / w
		}
	}
	return dst
}

// objectiveRanges holds each objective's [lo, hi] range over a point set.
type objectiveRanges struct {
	lo, hi [2 + pareto.MaxExtraObjectives]float64
}

// fold sets the first dim ranges over pts, or, when live is non-nil, over
// pts[live[a]] for every slot a with alive[a] set. Each range folds
// math.Min and math.Max over the points in order, the historical
// two-objective recurrence; seeding the fold with ±Inf is exact, since
// math.Min(+Inf, v) and math.Max(-Inf, v) are v for every v, NaN included.
// Privacy and utility are read as fields: through Point.At the call took
// about 1.5× as long.
func (r *objectiveRanges) fold(pts []pareto.Point, live []int, alive []bool, dim int) {
	lo, hi := &r.lo, &r.hi
	for t := 0; t < dim; t++ {
		lo[t], hi[t] = math.Inf(1), math.Inf(-1)
	}
	slots := len(pts)
	if live != nil {
		slots = len(live)
	}
	for a := 0; a < slots; a++ {
		i := a
		if live != nil {
			if !alive[a] {
				continue
			}
			i = live[a]
		}
		p := &pts[i]
		lo[0], hi[0] = math.Min(lo[0], p.Privacy), math.Max(hi[0], p.Privacy)
		lo[1], hi[1] = math.Min(lo[1], p.Utility), math.Max(hi[1], p.Utility)
		for t := 2; t < dim; t++ {
			v := p.ExtraAt(t - 2)
			lo[t], hi[t] = math.Min(lo[t], v), math.Max(hi[t], v)
		}
	}
}

// interior reports whether p lies strictly inside each of the first dim
// ranges. Removing such a point from the folded set leaves every range,
// and so every scale, as it is; a NaN coordinate or range is never
// interior.
func (r *objectiveRanges) interior(p *pareto.Point, dim int) bool {
	if !(r.lo[0] < p.Privacy && p.Privacy < r.hi[0] && r.lo[1] < p.Utility && p.Utility < r.hi[1]) {
		return false
	}
	for t := 2; t < dim; t++ {
		if v := p.ExtraAt(t - 2); !(r.lo[t] < v && v < r.hi[t]) {
			return false
		}
	}
	return true
}

// SelectEnvironment performs SPEA2 environmental selection (Section V-C):
// it returns the indices (into pts) of the individuals forming the next
// archive of size capacity. All non-dominated individuals (fitness < 1) are
// taken first; a shortfall is filled with the best dominated individuals; an
// overflow is reduced with the iterative nearest-neighbour truncation
// operator, which preserves spread. The returned slice aliases the scratch
// and is valid until the next SelectEnvironment call.
func (s *Scratch) SelectEnvironment(pts []pareto.Point, fit Fitness, capacity int, cfg Config) ([]int, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("emoo: archive capacity must be positive, got %d", capacity)
	}
	if len(fit.Value) != len(pts) {
		return nil, fmt.Errorf("emoo: fitness for %d points, got %d values", len(pts), len(fit.Value))
	}
	s.sel = growInts(s.sel, len(pts))[:0]
	next := s.sel
	for i, v := range fit.Value {
		if v < 1 {
			next = append(next, i)
		}
	}
	s.sel = next
	switch {
	case len(next) == capacity:
		return next, nil
	case len(next) < capacity:
		// Fill with the best dominated individuals.
		s.rest = growInts(s.rest, len(pts))[:0]
		rest := s.rest
		for i, v := range fit.Value {
			if v >= 1 {
				rest = append(rest, i)
			}
		}
		s.rest = rest
		sort.Slice(rest, func(a, b int) bool { return fit.Value[rest[a]] < fit.Value[rest[b]] })
		need := capacity - len(next)
		if need > len(rest) {
			need = len(rest)
		}
		next = append(next, rest[:need]...)
		s.sel = next
		return next, nil
	default:
		return s.truncate(pts, next, capacity, cfg), nil
	}
}

// SelectEnvironment is the one-shot form of (*Scratch).SelectEnvironment.
func SelectEnvironment(pts []pareto.Point, fit Fitness, capacity int, cfg Config) ([]int, error) {
	return NewScratch().SelectEnvironment(pts, fit, capacity, cfg)
}

// truncate iteratively removes, from the selected index set, the individual
// with the lexicographically smallest sorted distance vector to the other
// selected individuals — i.e. the one crowding the densest spot — until the
// set fits the capacity.
//
// The loop maintains the nearest-neighbour structures incrementally: the
// pairwise distances and each survivor's sorted distance vector are computed
// once and, after a removal, only the victim's distance is deleted from each
// vector (an O(m) ordered delete instead of an O(m log m) re-sort, with no
// distance recomputation). The historical implementation rebuilt and
// re-sorted everything per removal. The one case that forces a rebuild is a
// change of the normalization scales — the victim was the sole extremum of
// an objective — which the loop detects by recomputing the scales over the
// survivors. A victim strictly inside every objective's range cannot move
// a range, so the recompute is skipped for it.
func (s *Scratch) truncate(pts []pareto.Point, selected []int, capacity int, cfg Config) []int {
	m := len(selected)
	live := growInts(s.live, m)
	copy(live, selected)
	alive := growBools(s.alive, m)
	for a := range alive {
		alive[a] = true
	}
	tdist := growFloats(s.tdist, m*m)
	vec := growFloats(s.vec, m*m)
	vecLen := growInts(s.vecLen, m)
	s.live, s.alive, s.tdist, s.vec, s.vecLen = live, alive, tdist, vec, vecLen
	s.scales = objectiveScales(s.scales, &s.ranges, pts, live, alive, cfg.Normalize)

	for count, rebuild := m, true; count > capacity; {
		if rebuild {
			liveDistances(pts, live, alive, s.scales, tdist)
			sortVectors(alive, tdist, vec, vecLen)
			rebuild = false
		}
		victim := victimSlot(alive, vec, vecLen)
		alive[victim] = false
		count--
		if count <= capacity {
			break
		}
		if cfg.Normalize && !s.ranges.interior(&pts[live[victim]], len(s.scales)) {
			s.scalesNew = objectiveScales(s.scalesNew, &s.ranges, pts, live, alive, true)
			if !slices.Equal(s.scales, s.scalesNew) {
				// The victim carried an objective extremum: the ranges and
				// so all normalized distances changed.
				s.scales, s.scalesNew = s.scalesNew, s.scales
				rebuild = true
				continue
			}
		}
		dropDistance(victim, alive, tdist, vec, vecLen)
	}

	out := selected[:0]
	for a, ok := range alive {
		if ok {
			out = append(out, live[a])
		}
	}
	s.sel = out
	return out
}

// liveDistances fills the flat m×m tdist with the pairwise distances of the
// live slots under the per-objective scales; slot a holds pts[live[a]].
// Dead slots' entries are stale and never read. It splits on the objective
// count like strengths.
func liveDistances(pts []pareto.Point, live []int, alive []bool, scales, tdist []float64) {
	m := len(live)
	two := pts[0].Dim() == 2
	for a := range live {
		if !alive[a] {
			continue
		}
		pa := &pts[live[a]]
		tdist[a*m+a] = 0
		if two {
			scaleP, scaleU := scales[0], scales[1]
			for b := a + 1; b < m; b++ {
				if !alive[b] {
					continue
				}
				pb := &pts[live[b]]
				dp := (pa.Privacy - pb.Privacy) * scaleP
				du := (pa.Utility - pb.Utility) * scaleU
				d := math.Sqrt(dp*dp + du*du)
				tdist[a*m+b] = d
				tdist[b*m+a] = d
			}
		} else {
			for b := a + 1; b < m; b++ {
				if !alive[b] {
					continue
				}
				d := scaledDistance(*pa, pts[live[b]], scales)
				tdist[a*m+b] = d
				tdist[b*m+a] = d
			}
		}
	}
}

// sortVectors sets row a of vec (stride m) to live slot a's ascending
// distances to the other live slots, and vecLen[a] to their count.
func sortVectors(alive []bool, tdist, vec []float64, vecLen []int) {
	m := len(alive)
	for a := range alive {
		if !alive[a] {
			continue
		}
		row := vec[a*m : a*m]
		for b, ok := range alive {
			if ok && b != a {
				row = append(row, tdist[a*m+b])
			}
		}
		sort.Float64s(row)
		vecLen[a] = len(row)
	}
}

// victimSlot returns the first live slot with the lexicographically
// smallest sorted distance vector. Scanning slots in ascending order visits
// the survivors in the order the historical live-list implementation did.
func victimSlot(alive []bool, vec []float64, vecLen []int) int {
	m := len(alive)
	victim := -1
	for a := range alive {
		if !alive[a] {
			continue
		}
		if victim < 0 || lexLess(vec[a*m:a*m+vecLen[a]], vec[victim*m:victim*m+vecLen[victim]]) {
			victim = a
		}
	}
	return victim
}

// dropDistance deletes the victim's distance from every live slot's sorted
// vector in place: a binary search and an ordered shift, no re-sort.
func dropDistance(victim int, alive []bool, tdist, vec []float64, vecLen []int) {
	m := len(alive)
	for a := range alive {
		if !alive[a] {
			continue
		}
		row := vec[a*m : a*m+vecLen[a]]
		i := sort.SearchFloat64s(row, tdist[a*m+victim])
		copy(row[i:], row[i+1:])
		vecLen[a]--
	}
}

// lexLess reports whether distance vector a is lexicographically smaller
// than b (equal-length slices).
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// BinaryTournament picks one index in [0, len(fit.Value)) by drawing two
// uniformly at random and keeping the one with the better (lower) fitness
// (Section V-D). It panics on an empty fitness set, which is a caller bug.
func BinaryTournament(fit Fitness, r *randx.Source) int {
	n := len(fit.Value)
	if n == 0 {
		panic("emoo: BinaryTournament over empty set")
	}
	a := r.Intn(n)
	b := r.Intn(n)
	if fit.Value[b] < fit.Value[a] {
		return b
	}
	return a
}
