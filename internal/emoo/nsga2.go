package emoo

import (
	"fmt"
	"math"
	"sort"

	"optrr/internal/pareto"
)

// NSGA-II (Deb et al.) as an alternative engine. The paper chooses SPEA2
// citing a comparison study (Section V); implementing NSGA-II lets the
// repository validate that choice empirically (the abl-nsga2 experiment).
// The interface mirrors the SPEA2 functions: a Fitness whose Value orders
// individuals (lower is better) for the shared BinaryTournament, and a
// selection routine returning archive indices.

// NondominatedSort returns the Pareto rank of every point: rank 0 for the
// non-dominated front, rank 1 for the front after removing rank 0, and so
// on. This is the O(M·N²) fast non-dominated sort.
func NondominatedSort(pts []pareto.Point) []int {
	n := len(pts)
	rank := make([]int, n)
	dominatedBy := make([]int, n) // how many points dominate i
	dominates := make([][]int, n) // which points i dominates
	var current []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if pts[i].Dominates(pts[j]) {
				dominates[i] = append(dominates[i], j)
			} else if pts[j].Dominates(pts[i]) {
				dominatedBy[i]++
			}
		}
		if dominatedBy[i] == 0 {
			rank[i] = 0
			current = append(current, i)
		}
	}
	r := 0
	for len(current) > 0 {
		var next []int
		for _, i := range current {
			for _, j := range dominates[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					rank[j] = r + 1
					next = append(next, j)
				}
			}
		}
		current = next
		r++
	}
	return rank
}

// CrowdingDistance returns the NSGA-II crowding distance of each point
// within its own rank: boundary points of a rank get +Inf, interior points
// the sum of normalized neighbour gaps per objective.
func CrowdingDistance(pts []pareto.Point, rank []int) []float64 {
	n := len(pts)
	dist := make([]float64, n)
	byRank := map[int][]int{}
	for i, r := range rank {
		byRank[r] = append(byRank[r], i)
	}
	for _, members := range byRank {
		if len(members) <= 2 {
			for _, i := range members {
				dist[i] = math.Inf(1)
			}
			continue
		}
		for obj := 0; obj < pointDim(pts); obj++ {
			value := func(i int) float64 { return pts[i].At(obj) }
			idx := append([]int(nil), members...)
			sort.Slice(idx, func(a, b int) bool { return value(idx[a]) < value(idx[b]) })
			lo, hi := value(idx[0]), value(idx[len(idx)-1])
			span := hi - lo
			dist[idx[0]] = math.Inf(1)
			dist[idx[len(idx)-1]] = math.Inf(1)
			if span == 0 {
				continue
			}
			for k := 1; k < len(idx)-1; k++ {
				dist[idx[k]] += (value(idx[k+1]) - value(idx[k-1])) / span
			}
		}
	}
	return dist
}

// pointDim returns the objective count of a point set; an empty set counts
// as the canonical two objectives.
func pointDim(pts []pareto.Point) int {
	if len(pts) == 0 {
		return 2
	}
	return pts[0].Dim()
}

// NSGA2Fitness encodes (rank, crowding) as a scalar compatible with
// BinaryTournament: lower rank always wins; within a rank, larger crowding
// (sparser region) wins. The crowding term lives in (0, 0.5], mirroring the
// SPEA2 density term, so it can never override a rank difference.
func NSGA2Fitness(pts []pareto.Point) Fitness {
	rank := NondominatedSort(pts)
	crowd := CrowdingDistance(pts, rank)
	value := make([]float64, len(pts))
	for i := range pts {
		value[i] = float64(rank[i]) + 1/(2+crowd[i])
	}
	return Fitness{Value: value}
}

// NSGA2Select returns the indices of the capacity survivors: whole ranks are
// taken while they fit; the first rank that overflows is truncated by
// descending crowding distance.
func NSGA2Select(pts []pareto.Point, capacity int) ([]int, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("emoo: archive capacity must be positive, got %d", capacity)
	}
	if len(pts) <= capacity {
		out := make([]int, len(pts))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	rank := NondominatedSort(pts)
	crowd := CrowdingDistance(pts, rank)
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if rank[ia] != rank[ib] {
			return rank[ia] < rank[ib]
		}
		return crowd[ia] > crowd[ib]
	})
	return idx[:capacity], nil
}
