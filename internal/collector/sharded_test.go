package collector

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// TestShardedMatchesSafeExactly pins the headline equivalence claim: an
// 8-shard and a 1-shard collector fed the identical report stream give
// bit-for-bit identical answers to every query — both reconstruct through
// the same cached factorization of the same matrix over the same folded
// counts, so no tolerance is needed.
func TestShardedMatchesSafeExactly(t *testing.T) {
	m := mustWarner(t, 5, 0.7)
	safe := New(m, 1)
	sharded := New(m, 8)

	rng := randx.New(42)
	for i := 0; i < 5000; i++ {
		r := rng.Intn(5)
		if err := safe.Ingest(r); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]int, 500)
	for j := range batch {
		batch[j] = rng.Intn(5)
	}
	if err := safe.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := sharded.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}

	if safe.Count() != sharded.Count() {
		t.Fatalf("count: safe %d, sharded %d", safe.Count(), sharded.Count())
	}
	wantEst, err := safe.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	gotEst, err := sharded.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range wantEst {
		if wantEst[k] != gotEst[k] {
			t.Fatalf("estimate[%d]: safe %v, sharded %v (must match exactly)", k, wantEst[k], gotEst[k])
		}
	}
	wantSum, err := safe.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := sharded.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if wantSum.Reports != gotSum.Reports {
		t.Fatalf("snapshot reports: %d vs %d", wantSum.Reports, gotSum.Reports)
	}
	for k := range wantSum.Estimate {
		if wantSum.Estimate[k] != gotSum.Estimate[k] {
			t.Fatalf("snapshot estimate[%d]: %v vs %v", k, wantSum.Estimate[k], gotSum.Estimate[k])
		}
		if wantSum.HalfWidth[k] != gotSum.HalfWidth[k] {
			t.Fatalf("snapshot half-width[%d]: %v vs %v", k, wantSum.HalfWidth[k], gotSum.HalfWidth[k])
		}
	}
	wantMargin, err := safe.MarginOfError(1.96)
	if err != nil {
		t.Fatal(err)
	}
	gotMargin, err := sharded.MarginOfError(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if wantMargin != gotMargin {
		t.Fatalf("margin: %v vs %v", wantMargin, gotMargin)
	}
	wantNeed, err := safe.ReportsForMargin(0.005, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	gotNeed, err := sharded.ReportsForMargin(0.005, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if wantNeed != gotNeed {
		t.Fatalf("reports for margin: %d vs %d", wantNeed, gotNeed)
	}
}

// TestShardedValidation: on a multi-shard collector out-of-range reports are
// rejected and a bad batch leaves state unchanged.
func TestShardedValidation(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 4)
	if err := c.Ingest(3); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
	if err := c.IngestBatch([]int{0, 1, 7}); !errors.Is(err, ErrBadReport) {
		t.Fatalf("batch err = %v, want ErrBadReport", err)
	}
	if c.Count() != 0 {
		t.Fatal("failed ingest left partial state")
	}
	if _, err := c.Estimate(); !errors.Is(err, ErrNoReports) {
		t.Fatalf("err = %v, want ErrNoReports", err)
	}
	if _, err := c.Snapshot(0); err == nil {
		t.Fatal("z = 0 accepted")
	}
}

// TestShardedDefaultShards: shards <= 0 picks a positive default.
func TestShardedDefaultShards(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 0)
	if c.Shards() < 1 {
		t.Fatalf("default shards = %d", c.Shards())
	}
	if err := c.Ingest(1); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d", c.Count())
	}
}

// TestShardedSingularMatrix: construction accepts a singular matrix;
// estimate queries return rr.ErrSingular.
func TestShardedSingularMatrix(t *testing.T) {
	m, err := rr.FromColumns([][]float64{
		{0.5, 0.5, 0},
		{0.5, 0.5, 0},
		{1, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, 4)
	if err := c.IngestBatch([]int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("err = %v, want rr.ErrSingular", err)
	}
	if _, err := c.Snapshot(1.96); !errors.Is(err, rr.ErrSingular) {
		t.Fatalf("snapshot err = %v, want rr.ErrSingular", err)
	}
}

// TestShardedMerge folds two regional collectors into one and checks the
// merged counts equal a collector that saw both streams.
func TestShardedMerge(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	a := New(m, 4)
	b := New(m, 2)
	whole := New(m, 1)

	rng := randx.New(7)
	for i := 0; i < 1000; i++ {
		r := rng.Intn(4)
		target := a
		if i%2 == 1 {
			target = b
		}
		if err := target.Ingest(r); err != nil {
			t.Fatal(err)
		}
		if err := whole.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1000 {
		t.Fatalf("merged count = %d, want 1000", a.Count())
	}
	gotCounts, wantCounts := a.Counts(), whole.Counts()
	for k := range wantCounts {
		if gotCounts[k] != wantCounts[k] {
			t.Fatalf("merged counts[%d] = %d, want %d", k, gotCounts[k], wantCounts[k])
		}
	}
	// b is unchanged by the merge.
	if b.Count() != 500 {
		t.Fatalf("source count = %d after merge, want 500", b.Count())
	}
	// Merging a collector into itself is refused and changes nothing: it
	// would double every count and shrink every stated half-width by √2.
	if err := a.Merge(a); err == nil {
		t.Fatal("merging a collector into itself accepted")
	}
	if a.Count() != 1000 {
		t.Fatalf("count = %d after a refused self-merge, want 1000", a.Count())
	}

	// Merging across different matrices is refused.
	other := New(mustWarner(t, 4, 0.9), 2)
	if err := a.Merge(other); err == nil {
		t.Fatal("merge across different disguise matrices accepted")
	}
	mismatched := New(mustWarner(t, 3, 0.7), 2)
	if err := a.Merge(mismatched); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("dimension-mismatched merge err = %v, want rr.ErrShape", err)
	}
}

// TestShardedSnapshotRestore round-trips the crash-recovery snapshot: the
// restored collector answers every query exactly like the original,
// regardless of the shard count it is restored onto.
func TestShardedSnapshotRestore(t *testing.T) {
	m := mustWarner(t, 4, 0.75)
	c := New(m, 8)
	rng := randx.New(3)
	for i := 0; i < 2000; i++ {
		if err := c.Ingest(rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != c.Count() {
		t.Fatalf("restored count = %d, want %d", restored.Count(), c.Count())
	}
	want, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Estimate {
		if want.Estimate[k] != got.Estimate[k] || want.HalfWidth[k] != got.HalfWidth[k] {
			t.Fatalf("restored snapshot differs at %d: %v/%v vs %v/%v",
				k, want.Estimate[k], want.HalfWidth[k], got.Estimate[k], got.HalfWidth[k])
		}
	}

	// The restored collector keeps collecting.
	if err := restored.Ingest(0); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != c.Count()+1 {
		t.Fatalf("restored collector did not accept new reports")
	}
}

// TestRestoreShardedRejectsBadSnapshots covers the decode validation paths.
func TestRestoreShardedRejectsBadSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{
		{"garbage", `{"matrix": 12}`},
		{"no matrix", `{"counts": [1, 2]}`},
		{"count shape", `{"matrix": {"categories": 2, "columns": [[0.8, 0.2], [0.2, 0.8]]}, "counts": [1]}`},
		{"negative count", `{"matrix": {"categories": 2, "columns": [[0.8, 0.2], [0.2, 0.8]]}, "counts": [1, -4]}`},
		{"broken stochasticity", `{"matrix": {"categories": 2, "columns": [[0.8, 0.8], [0.2, 0.8]]}, "counts": [1, 2]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore([]byte(tc.data), 2); err == nil {
				t.Fatalf("snapshot %s accepted", tc.data)
			}
		})
	}
}

// TestWriterFlushSemantics pins the buffered writer contract: reports stay
// invisible until Flush, a flush lands them as one batch, and the flushed
// totals match what direct ingestion would give.
func TestWriterFlushSemantics(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	c := New(m, 4)
	direct := New(m, 1)

	w := c.NewWriter(1000) // larger than the stream: nothing auto-flushes
	rng := randx.New(11)
	for i := 0; i < 500; i++ {
		r := rng.Intn(4)
		if err := w.Ingest(r); err != nil {
			t.Fatal(err)
		}
		if err := direct.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Count(); got != 0 {
		t.Fatalf("buffered reports visible before flush: count = %d", got)
	}
	if got := w.Buffered(); got != 500 {
		t.Fatalf("Buffered() = %d, want 500", got)
	}
	w.Flush()
	if got := w.Buffered(); got != 0 {
		t.Fatalf("Buffered() = %d after flush, want 0", got)
	}
	gotCounts, wantCounts := c.Counts(), direct.Counts()
	for k := range wantCounts {
		if gotCounts[k] != wantCounts[k] {
			t.Fatalf("flushed counts[%d] = %d, want %d", k, gotCounts[k], wantCounts[k])
		}
	}
	// Flushing an empty buffer is a no-op.
	w.Flush()
	if got := c.Count(); got != 500 {
		t.Fatalf("count = %d after empty flush, want 500", got)
	}
}

// TestWriterAutoFlushAndValidation: the buffer drains itself at the flush
// threshold, and a bad report errors immediately without contaminating it.
func TestWriterAutoFlushAndValidation(t *testing.T) {
	m := mustWarner(t, 3, 0.8)
	c := New(m, 2)
	w := c.NewWriter(10)
	for i := 0; i < 25; i++ {
		if err := w.Ingest(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Count(); got != 20 {
		t.Fatalf("count = %d after 25 ingests at flushEvery=10, want 20 auto-flushed", got)
	}
	if got := w.Buffered(); got != 5 {
		t.Fatalf("Buffered() = %d, want 5", got)
	}
	if err := w.Ingest(3); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
	if got := w.Buffered(); got != 5 {
		t.Fatalf("bad report changed the buffer: Buffered() = %d, want 5", got)
	}
	w.Flush()
	if got := c.Count(); got != 25 {
		t.Fatalf("count = %d, want 25", got)
	}
	// Default threshold kicks in for flushEvery <= 0.
	if def := c.NewWriter(0); def.limit != 256 {
		t.Fatalf("default flushEvery = %d, want 256", def.limit)
	}
}

// TestWritersSpreadAcrossShards: round-robin pinning sends consecutive
// writers to distinct shards.
func TestWritersSpreadAcrossShards(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 4)
	seen := make(map[*shard]bool)
	for i := 0; i < 4; i++ {
		seen[c.NewWriter(8).sh] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 writers landed on %d shards, want 4", len(seen))
	}
}

// BenchmarkCollectorContention measures the sharded atomic counters under
// 1-, 4- and 16-goroutine ingestion, plus a buffered-Writer batch-ingest
// case driven through b.RunParallel. Reports are pregenerated outside the
// timer; each goroutine ingests a disjoint slice. The .../instrumented cases
// repeat the 4-goroutine and Writer runs on a collector instrumented with a
// registry, so a per-report metric update on the ingest path would show
// here as shared-cache-line contention.
func BenchmarkCollectorContention(b *testing.B) {
	m, err := rr.Warner(5, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(1)
	reports := make([]int, 1<<16)
	for i := range reports {
		reports[i] = rng.Intn(5)
	}
	type ingester interface {
		Ingest(int) error
	}
	run := func(b *testing.B, c ingester, goroutines int) {
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			lo := w * b.N / goroutines
			hi := (w + 1) * b.N / goroutines
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if err := c.Ingest(reports[i&(len(reports)-1)]); err != nil {
						b.Error(err)
						return
					}
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	instrumented := func() *Collector {
		c := New(m, 16)
		c.Instrument(nil, obs.NewRegistry())
		return c
	}
	writers := func(b *testing.B, c *Collector) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := c.NewWriter(256)
			i := 0
			for pb.Next() {
				if err := w.Ingest(reports[i&(len(reports)-1)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
			w.Flush()
		})
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sharded/g%d", g), func(b *testing.B) {
			run(b, New(m, 16), g)
		})
	}
	b.Run("sharded/g4/instrumented", func(b *testing.B) { run(b, instrumented(), 4) })
	b.Run("writer/batch", func(b *testing.B) { writers(b, New(m, 16)) })
	b.Run("writer/batch/instrumented", func(b *testing.B) { writers(b, instrumented()) })
}
