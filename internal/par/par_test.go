package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"optrr/internal/randx"
)

// TestWorkers pins the worker-count rule.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ requested, n, want int }{
		{0, 8, procs}, // unset → GOMAXPROCS
		{3, 8, 3},
		{16, 3, 3}, // never more than one per item
		{-2, 5, procs},
		{4, 0, 1}, // at least one
		{0, 0, 1},
	}
	for _, tc := range cases {
		want := max(1, min(tc.want, tc.n))
		if got := Workers(tc.requested, tc.n); got != want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.n, got, want)
		}
	}
}

// TestFor: every index runs exactly once, on a worker below the resolved
// worker count.
func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 5, 200} {
			w := Workers(workers, n)
			hits := make([]atomic.Int32, n)
			var bad atomic.Int32
			For(workers, n, func(worker, i int) {
				if worker < 0 || worker >= w {
					bad.Add(1)
				}
				hits[i].Add(1)
			})
			if b := bad.Load(); b != 0 {
				t.Errorf("n=%d workers=%d: %d calls on a worker id outside [0, %d)", n, workers, b, w)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestForOneWorkerAllocatesNothing: the inline path is free, so a serial
// caller pays nothing for going through For.
func TestForOneWorkerAllocatesNothing(t *testing.T) {
	sum := 0
	fn := func(_, i int) { sum += i }
	if a := testing.AllocsPerRun(100, func() { For(1, 64, fn) }); a != 0 {
		t.Errorf("one-worker For allocated %v times per call", a)
	}
	if sum == 0 {
		t.Fatal("fn never ran")
	}
}

// TestChunksSchedule pins the chunk grid: every index is visited exactly
// once, chunk c spans [c·Chunk, min((c+1)·Chunk, total)) and receives the
// stream for index c, at any worker count.
func TestChunksSchedule(t *testing.T) {
	total := 2*Chunk + 99
	for _, w := range []int{0, 1, 2, 5} {
		visited := make([]int, total)
		err := Chunks(total, 55, w, func(lo, hi int, rng *randx.Source) error {
			c := lo / Chunk
			if lo != c*Chunk {
				return errors.New("chunk start off the grid")
			}
			if hi != min(lo+Chunk, total) {
				return errors.New("chunk end off the grid")
			}
			if got, want := rng.Uint64(), randx.Stream(55, uint64(c)).Uint64(); got != want {
				return errors.New("chunk stream not Stream(seed, chunk)")
			}
			for i := lo; i < hi; i++ {
				visited[i]++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
	if err := Chunks(0, 1, 4, func(lo, hi int, rng *randx.Source) error {
		return errors.New("body ran for an empty batch")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestChunksFirstErrorInOrder: when several chunks fail, the error reported
// is the lowest-numbered chunk's, whichever finished first, and every chunk
// still runs.
func TestChunksFirstErrorInOrder(t *testing.T) {
	total := 6*Chunk + 5
	for _, w := range []int{1, 2, 4} {
		var ran atomic.Int32
		err := Chunks(total, 9, w, func(lo, hi int, rng *randx.Source) error {
			ran.Add(1)
			if c := lo / Chunk; c == 2 || c == 3 || c == 6 {
				return fmt.Errorf("chunk %d", c)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 2" {
			t.Errorf("workers=%d: error = %v, want chunk 2", w, err)
		}
		if r := ran.Load(); r != 7 {
			t.Errorf("workers=%d: %d of 7 chunks ran", w, r)
		}
	}
}
