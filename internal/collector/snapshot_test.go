package collector

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"optrr/internal/randx"
)

// TestSnapshotCarriesTotal: the crash-recovery wire form records the total
// redundantly so a mangled counts array is detectable.
func TestSnapshotCarriesTotal(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 2)
	for i := 0; i < 30; i++ {
		if err := c.Ingest(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"total":30`) {
		t.Fatalf("snapshot missing total: %s", data)
	}
	restored, err := Restore(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count() != 30 {
		t.Fatalf("restored count = %d, want 30", restored.Count())
	}
}

// TestRestoreShardedRejectsCorruptSnapshots: every corruption class a
// long-lived server can meet on disk — truncated JSON, a total that
// disagrees with the counts, counts mangled under an intact total, negative
// counts — is rejected with the typed ErrBadSnapshot instead of silently
// poisoning every subsequent Estimate.
func TestRestoreShardedRejectsCorruptSnapshots(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 2)
	rng := randx.New(5)
	for i := 0; i < 300; i++ {
		if err := c.Ingest(rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	good, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		data string
	}{
		{"truncated file", string(good[:len(good)/2])},
		{"total != sum", strings.Replace(string(good), `"total":300`, `"total":299`, 1)},
		{"counts mangled under intact total",
			strings.Replace(string(good), `"counts":[`, `"counts":[1000000,`, 1)},
		{"negative count with matching total",
			`{"matrix":{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]},"counts":[3,-1],"total":2}`},
		{"wrong category count vs matrix",
			`{"matrix":{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]},"counts":[1,2,3],"total":6}`},
		{"no matrix", `{"counts":[1,2],"total":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// "counts mangled" keeps the declared shape only for n=2 inputs;
			// for the marshalled n=3 snapshot it both breaks the shape and
			// the total — either way it must be ErrBadSnapshot.
			if _, err := Restore([]byte(tc.data), 2); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
		})
	}

	// Legacy snapshots (written before the total field existed) still
	// restore: the check is opt-in on presence.
	legacy := `{"matrix":{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]},"counts":[4,6]}`
	restored, err := Restore([]byte(legacy), 2)
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if restored.Count() != 10 {
		t.Fatalf("legacy restore count = %d, want 10", restored.Count())
	}
}

// TestWriterCloseLifecycle pins the tightened Writer contract: Close flushes
// the buffer, further ingestion is refused with ErrWriterClosed (and does
// not touch the buffer or the collector), and Close/Flush are idempotent.
func TestWriterCloseLifecycle(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 2)
	w := c.NewWriter(1000)
	for i := 0; i < 7; i++ {
		if err := w.Ingest(i % 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Count(); got != 0 {
		t.Fatalf("buffered reports visible before close: count = %d", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != 7 {
		t.Fatalf("count = %d after close, want 7 (close must flush)", got)
	}
	if got := w.Buffered(); got != 0 {
		t.Fatalf("Buffered() = %d after close, want 0", got)
	}

	if err := w.Ingest(1); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("ingest after close err = %v, want ErrWriterClosed", err)
	}
	if got, want := c.Count(), 7; got != want {
		t.Fatalf("rejected ingest reached the collector: count = %d, want %d", got, want)
	}
	if got := w.Buffered(); got != 0 {
		t.Fatalf("rejected ingest buffered: Buffered() = %d, want 0", got)
	}

	// Idempotence: double Close and post-close Flush are no-ops.
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("post-close Flush = %v, want nil", err)
	}
	if got := c.Count(); got != 7 {
		t.Fatalf("idempotent close/flush changed counts: %d, want 7", got)
	}
}
