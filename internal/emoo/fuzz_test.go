package emoo

import (
	"testing"

	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// FuzzAssignFitnessKDim fuzzes AssignFitness over point dimension, cloud
// size, density k and normalization: for any input, a reused warm Scratch
// must produce bit-for-bit the fitness of a fresh one, and both must equal
// the reference implementation in spea2_ref_test.go. The cloud is derived
// deterministically from the fuzzed seed so failures reproduce from the
// corpus entry alone.
func FuzzAssignFitnessKDim(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(1), true)
	f.Add(uint64(7), uint8(90), uint8(4), uint8(3), false)
	f.Add(uint64(13), uint8(2), uint8(6), uint8(1), true)
	f.Add(uint64(99), uint8(130), uint8(2), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, dim, k uint8, normalize bool) {
		size := 1 + int(n)%160
		d := 2 + int(dim)%(pareto.MaxExtraObjectives+1)
		r := randx.New(seed)
		pts := kdimCloud(size, d, r)
		// A sprinkling of exact duplicates and shared coordinates keeps the
		// tie-handling paths (zero distances, equal strengths) in play.
		for i := range pts {
			if r.Float64() < 0.15 && i > 0 {
				pts[i] = pts[r.Intn(i)]
			}
		}
		cfg := Config{KNearest: 1 + int(k)%8, Normalize: normalize}
		want := cloneFitness(NewScratch().AssignFitness(pts, cfg))
		warm := NewScratch()
		warm.AssignFitness(kdimCloud(8, d, r), cfg) // dirty the buffers first
		got := warm.AssignFitness(pts, cfg)
		fitnessEqual(t, "fuzz", want, got)
		fitnessEqual(t, "fuzz vs reference", refAssignFitness(pts, cfg), got)
	})
}
