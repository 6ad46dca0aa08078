// Package par is the one fan-out behind every parallel path: the search's
// per-generation evaluation, the island epochs, the chunked disguise and
// sampling kernels and the experiment grid. It owns how work spreads over
// goroutines — the worker count, the scheduling, the chunk grid with its
// random streams, and which error is reported — so that no caller repeats
// that policy.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"optrr/internal/randx"
)

// Chunk is the number of items in one chunk of Chunks. The partition into
// chunks depends only on the item count, and 8192 items amortize the
// per-chunk Source construction to well under a nanosecond per item.
const Chunk = 8192

// Workers resolves how many workers a fan-out over n items runs on: the
// requested count when positive, GOMAXPROCS otherwise, never more than n and
// at least 1.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, n))
}

// For runs fn(worker, i) for every i in [0, n) on Workers(workers, n)
// workers and returns once all calls have. The worker index, below that
// count, names the goroutine making the call, so a caller can hand each
// worker exclusive scratch state; which worker runs which index varies from
// run to run. The calling goroutine is worker 0 and only the other workers
// are started; each claims its next index from one shared counter, so an
// item that costs more than the rest delays no other. With one worker, fn
// runs inline and nothing is allocated.
func For(workers, n int, fn func(worker, i int)) {
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(worker int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for worker := 1; worker < w; worker++ {
		go func() {
			defer wg.Done()
			work(worker)
		}()
	}
	work(0)
	wg.Wait()
}

// Chunks runs body over [0, total) split into chunks of Chunk items, fanned
// out with For (zero workers means GOMAXPROCS). Chunk c covers
// [c·Chunk, min((c+1)·Chunk, total)) and always receives the stream
// randx.Stream(seed, c), so for a body that writes only its own chunk's
// output the result depends on (total, seed, body) alone, never on the
// worker count. Every chunk runs, even after one fails, and the error
// returned is the first in chunk order.
func Chunks(total int, seed uint64, workers int, body func(lo, hi int, rng *randx.Source) error) error {
	if total <= 0 {
		return nil
	}
	chunks := (total + Chunk - 1) / Chunk
	errs := make([]error, chunks)
	For(workers, chunks, func(_, c int) {
		lo := c * Chunk
		errs[c] = body(lo, min(lo+Chunk, total), randx.Stream(seed, uint64(c)))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
