package collector

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// shardSet is the cache-line-padded striped counter core of a Collector,
// width = the scheme's report space (the category count for a dense matrix,
// k·m for a sketch): a power-of-two set of shards, each a row of atomic
// counters plus the mutex that makes batch-style writes atomic with respect
// to queries. Goroutines map onto shards by stack address, so a steady
// ingester keeps hitting the same shard and never bounces a foreign cache
// line.
type shardSet struct {
	width  int
	shards []shard
}

// shard is one stripe of counts: a row of atomic counters (padded out to
// whole cache lines so neighbouring shards' rows never false-share) plus the
// mutex that makes batch-style writes atomic with respect to queries.
// Single-report ingestion never touches the mutex.
type shard struct {
	mu     sync.Mutex
	counts []atomic.Int64
	_      [40]byte
}

// countersPerLine is how many atomic.Int64 cells fill one 64-byte cache
// line; count rows are rounded up to this so two shards never share a line.
const countersPerLine = 8

func newShardRow(n int) []atomic.Int64 {
	padded := (n + countersPerLine - 1) / countersPerLine * countersPerLine
	return make([]atomic.Int64, padded)[:n]
}

// newShardSet builds a set of width-wide count stripes. The shard count is
// rounded up to a power of two; shards <= 0 picks a default sized to the
// scheduler (GOMAXPROCS).
func newShardSet(shards, width int) shardSet {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards < 1 {
			shards = 1
		}
	}
	pow2 := 1
	for pow2 < shards {
		pow2 <<= 1
	}
	s := shardSet{width: width, shards: make([]shard, pow2)}
	for i := range s.shards {
		s.shards[i].counts = newShardRow(width)
	}
	return s
}

// home picks the calling goroutine's shard from its stack address. Stacks
// live in distinct memory regions at least 2 KiB apart, so shifting a stack
// address down 11 bits gives a value that is stable for one goroutine at a
// given call depth and distinct across goroutines — shard affinity without a
// goroutine ID and without any shared cursor. The address never converts
// back to a pointer; only its page number is used. A collision only means
// two goroutines share a shard's counters (still correct, just contended).
func (s *shardSet) home() *shard {
	var marker byte
	page := uintptr(unsafe.Pointer(&marker)) >> 11
	return &s.shards[int(page)&(len(s.shards)-1)]
}

// land adds a per-cell count vector to the shard, one atomic add per
// non-zero cell, under the shard mutex so the whole vector is either in a
// query's fold or not at all. The adds stay atomic because lock-free single
// reports may land on the same shard concurrently. Writer.Flush's buffer,
// Merge's fold and Restore's counts land here.
func (sh *shard) land(cells []int) {
	sh.mu.Lock()
	for k, v := range cells {
		if v != 0 {
			sh.counts[k].Add(int64(v))
		}
	}
	sh.mu.Unlock()
}

// lockAll acquires every shard lock in index order (the fixed order makes
// nested acquisition deadlock-free) and returns the unlock function. Holding
// all locks excludes batch-style writers; single-report ingesters are
// lock-free but individually atomic, so the fold below is still a whole
// number of reports.
func (s *shardSet) lockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
}

// countsLocked folds the shard stripes into one (counts, total) view. The
// total is the sum of the counts actually read, so the view is always
// internally consistent.
func (s *shardSet) countsLocked() ([]int, int) {
	out := make([]int, s.width)
	total := 0
	for i := range s.shards {
		for k := range s.shards[i].counts {
			v := int(s.shards[i].counts[k].Load())
			out[k] += v
			total += v
		}
	}
	return out, total
}

// cell sums report k's count across the shards with atomic loads and no
// lock: a scrape-time read that never stalls an ingester, and may see part
// of a batch that is still landing.
func (s *shardSet) cell(k int) int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].counts[k].Load()
	}
	return n
}

// total is cell summed over the report space, read the same way.
func (s *shardSet) total() int64 {
	var n int64
	for i := range s.shards {
		for k := range s.shards[i].counts {
			n += s.shards[i].counts[k].Load()
		}
	}
	return n
}
