package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/sketch"
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

// nestedSnapshot is the reference for Collector.MarshalJSON: the snapshot
// composed the way json.Marshal(c) wrote it before the collector appended
// its parts — the envelope as a json.RawMessage in snapshotJSON, marshalled,
// and that result compacted once more as the collector's json.Marshaler
// output. The envelope itself is rr.MarshalScheme's, which package sketch
// pins against its own nested composition.
func nestedSnapshot(c *Collector) ([]byte, error) {
	env, err := rr.MarshalScheme(c.Scheme())
	if err != nil {
		return nil, err
	}
	counts, total := c.fold()
	inner, err := json.Marshal(snapshotJSON{Scheme: env, Counts: counts, Total: &total})
	if err != nil {
		return nil, err
	}
	return json.Marshal(json.RawMessage(inner))
}

// checkSnapshotEncoding asserts that c.MarshalJSON, and json.Marshal(c),
// write the reference composition's bytes.
func checkSnapshotEncoding(t *testing.T, c *Collector) []byte {
	t.Helper()
	want, err := nestedSnapshot(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the nested composition:\n got %.300s\nwant %.300s", got, want)
	}
	viaJSON, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaJSON, want) {
		t.Fatalf("json.Marshal(collector) differs from the nested composition:\n got %.300s\nwant %.300s", viaJSON, want)
	}
	return got
}

// TestSnapshotEncodingMatchesNested: a snapshot is the nested json.Marshal
// composition byte for byte for dense and sketch schemes, empty or not,
// and its envelope carries the deployed shapes' pinned fingerprints.
func TestSnapshotEncodingMatchesNested(t *testing.T) {
	krr, err := sketch.NewKRR(100000, 16, 256, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		scheme  rr.Scheme
		version string
	}{
		{"dense", mustWarner(t, 10, 0.75), "f0cb2026d9c612ba"},
		{"cms", krr, "bb26ee72a23d84cd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.scheme, 2)
			checkSnapshotEncoding(t, c)
			reports := make([]int, 5000)
			rng := randx.New(3)
			for i := range reports {
				reports[i] = rng.Intn(c.ReportSpace())
			}
			if err := c.IngestBatch(reports); err != nil {
				t.Fatal(err)
			}
			data := checkSnapshotEncoding(t, c)
			var raw snapshotJSON
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatal(err)
			}
			if v := rr.EnvelopeVersion(raw.Scheme); v != tc.version {
				t.Fatalf("snapshot envelope version %s, want %s", v, tc.version)
			}
		})
	}
}

// TestRestoreOnto: a snapshot whose envelope is the running scheme's byte
// for byte restores onto that scheme; every other snapshot restores as
// Restore does, onto the scheme it decodes, and a corrupt one is refused on
// either path.
func TestRestoreOnto(t *testing.T) {
	scheme := testCMS(t, 500, 4, 16)
	env, err := rr.MarshalScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	c := New(scheme, 2)
	if err := c.IngestBatch(sketchReports(t, scheme, 3000, 1)); err != nil {
		t.Fatal(err)
	}
	snap, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, snap, "", "  "); err != nil {
		t.Fatal(err)
	}
	other := New(testCMS(t, 500, 4, 32), 1)
	otherSnap, err := other.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	version, _ := c.SchemeVersion()
	otherVersion, _ := other.SchemeVersion()
	for _, tc := range []struct {
		name    string
		data    []byte
		onto    bool // restored onto the running scheme itself
		version string
		count   int
	}{
		{"own snapshot", snap, true, version, 3000},
		{"re-indented envelope", indented.Bytes(), false, version, 3000},
		{"another scheme", otherSnap, false, otherVersion, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := RestoreOnto(tc.data, 2, scheme, env)
			if err != nil {
				t.Fatal(err)
			}
			if onto := got.Scheme() == rr.Scheme(scheme); onto != tc.onto {
				t.Fatalf("restored onto the running scheme: %v, want %v", onto, tc.onto)
			}
			if v, err := got.SchemeVersion(); err != nil || v != tc.version {
				t.Fatalf("version %s (%v), want %s", v, err, tc.version)
			}
			plain, err := Restore(tc.data, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count() != tc.count || !slices.Equal(got.Counts(), plain.Counts()) {
				t.Fatalf("counts differ from Restore's: %d reports, want %d", got.Count(), tc.count)
			}
		})
	}
	corrupt := bytes.Replace(snap, []byte(`"total":3000`), []byte(`"total":2999`), 1)
	if _, err := RestoreOnto(corrupt, 2, scheme, env); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt total on the running scheme's envelope: err = %v, want ErrBadSnapshot", err)
	}
}
