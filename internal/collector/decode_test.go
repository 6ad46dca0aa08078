package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"optrr/internal/rr"
)

// snapshotJSON is the snapshot as encoding/json reads it. Restore decoded
// snapshots through it before the one-pass reader; it stays as the oracle
// that reader is checked against (oracleSnapshot) and as the reference the
// snapshot encoding is composed from (nestedSnapshot).
type snapshotJSON struct {
	Scheme json.RawMessage `json:"scheme,omitempty"`
	// Matrix is read, never written: dense snapshots from before the
	// scheme envelope carried the bare matrix here.
	Matrix *rr.Matrix `json:"matrix,omitempty"`
	Counts []int      `json:"counts"`
	Total  *int       `json:"total,omitempty"`
}

// oracleSnapshot decodes a snapshot as Restore did before the one-pass
// reader: json.Unmarshal into snapshotJSON, then the envelope through
// rr.UnmarshalScheme (which FuzzUnmarshalScheme checks against its own
// encoding/json oracle), or the legacy matrix when there is no envelope.
// The checks Restore then makes on the counts are shared by both readers.
func oracleSnapshot(data []byte) (rr.Scheme, snapshotJSON, error) {
	var raw snapshotJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, raw, err
	}
	switch {
	case len(raw.Scheme) > 0:
		s, err := rr.UnmarshalScheme(raw.Scheme)
		return s, raw, err
	case raw.Matrix != nil:
		return raw.Matrix, raw, nil
	}
	return nil, raw, errors.New("no scheme")
}

// checkOracle asserts that the oracle accepts a snapshot the collector c
// was restored from, with the same scheme (kind, version and every entry
// bit for bit: the canonical encodings are equal), counts and total.
func checkOracle(t *testing.T, data []byte, c *Collector) {
	t.Helper()
	scheme, raw, err := oracleSnapshot(data)
	if err != nil {
		t.Fatalf("restored a snapshot encoding/json rejects (%v):\n%.300s", err, data)
	}
	if !slices.Equal(raw.Counts, c.Counts()) {
		t.Fatalf("counts differ from encoding/json's:\n%.300s", data)
	}
	if raw.Total != nil && *raw.Total != c.Count() {
		t.Fatalf("total %d, encoding/json read %d", c.Count(), *raw.Total)
	}
	want, err := rr.MarshalScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rr.MarshalScheme(c.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Kind() != c.Scheme().Kind() || !bytes.Equal(got, want) {
		t.Fatalf("restored %s scheme %.200s, encoding/json read %s scheme %.200s", c.Scheme().Kind(), got, scheme.Kind(), want)
	}
}

// legacyMatrix is a 2-category dense matrix in the wire form legacy
// snapshots carried bare.
const legacyMatrix = `{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]}`

// shape is one spelling of a document a decoder must read.
type shape struct {
	name string
	data []byte
}

// indent returns data re-indented by json.Indent.
func indent(t testing.TB, data []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Indent(&b, data, "", "\t"); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// snapshotShapes returns a dense and a sketch collector with reports, and
// every snapshot shape a writer has produced for them or may produce: the
// canonical snapshots, legacy {"matrix":…} ones with and without total,
// re-indented ones, members in another order, and an unknown member.
func snapshotShapes(t testing.TB) (running []*Collector, shapes []shape) {
	for _, c := range []*Collector{New(mustWarner(t, 3, 0.8), 2), New(testCMS(t, 50, 2, 4), 2)} {
		if err := c.IngestBatch([]int{0, 1, 2, 2, 1}); err != nil {
			t.Fatal(err)
		}
		running = append(running, c)
		snap, err := c.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.encoded()
		if err != nil {
			t.Fatal(err)
		}
		counts, err := json.Marshal(c.Counts())
		if err != nil {
			t.Fatal(err)
		}
		kind := c.Scheme().Kind()
		payload := enc[len(`{"kind":"`+kind+`","scheme":`) : len(enc)-1]
		shapes = append(shapes,
			shape{kind + " snapshot", snap},
			shape{kind + " snapshot, json.Indent", indent(t, snap)},
			shape{kind + " snapshot, members reversed",
				[]byte(`{"total":5,"counts":` + string(counts) + `,"scheme":` + string(enc) + `}`)},
			shape{kind + " snapshot, envelope members reversed",
				[]byte(`{"scheme":{"scheme":` + string(payload) + `,"kind":"` + kind + `"},"counts":` + string(counts) + `,"total":5}`)},
			shape{kind + " snapshot, unknown member",
				[]byte(`{"scheme":` + string(enc) + `,"checkpoint":{"journal":"a\"b\u00e9","offset":[12,3.5e2,true,false,null]},"counts":` + string(counts) + `,"total":5}`)},
		)
	}
	legacy := []byte(`{"matrix":` + legacyMatrix + `,"counts":[4,6],"total":10}`)
	shapes = append(shapes,
		shape{"legacy matrix with total", legacy},
		shape{"legacy matrix without total", []byte(`{"matrix":` + legacyMatrix + `,"counts":[4,6]}`)},
		shape{"legacy matrix, json.Indent", indent(t, legacy)},
	)
	return running, shapes
}

// TestRestoreCompat: every snapshot shape a writer has produced restores,
// through Restore and through RestoreOnto with either scheme running, to
// what encoding/json reads from it.
func TestRestoreCompat(t *testing.T) {
	running, shapes := snapshotShapes(t)
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Restore(tc.data, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, tc.data, c)
			for _, r := range running {
				enc, err := r.encoded()
				if err != nil {
					t.Fatal(err)
				}
				got, err := RestoreOnto(tc.data, 2, r.Scheme(), enc)
				if err != nil {
					t.Fatalf("RestoreOnto(%s): %v", r.Scheme().Kind(), err)
				}
				checkOracle(t, tc.data, got)
			}
		})
	}
}

// TestRestoreRejects pins each rejection the one-pass reader documents, on
// both restore paths, and records which of them encoding/json let through.
func TestRestoreRejects(t *testing.T) {
	c := New(mustWarner(t, 2, 0.8), 1)
	if err := c.IngestBatch([]int{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	enc, err := c.encoded()
	if err != nil {
		t.Fatal(err)
	}
	env := string(enc)
	for _, tc := range []struct {
		name     string
		data     string
		jsonRead bool // encoding/json restored it
	}{
		{"duplicate member", `{"scheme":` + env + `,"counts":[4,6],"counts":[4,6],"total":10}`, true},
		{"escaped member name", `{"scheme":` + env + `,"c\u006funts":[4,6],"total":10}`, true},
		{"member name in another case", `{"scheme":` + env + `,"Counts":[4,6],"total":10}`, true},
		{"member name under Unicode folding", `{"ſcheme":` + env + `,"counts":[4,6],"total":10}`, true},
		{"null document", `null`, false},
		{"null total", `{"scheme":` + env + `,"counts":[4,6],"total":null}`, true},
		{"null count", `{"matrix":` + legacyMatrix + `,"counts":[4,null]}`, true},
		{"null scheme", `{"scheme":null,"counts":[4,6]}`, false},
		{"total with a fraction", `{"scheme":` + env + `,"counts":[4,6],"total":10.0}`, false},
		{"count with an exponent", `{"scheme":` + env + `,"counts":[4,6e0],"total":10}`, false},
		{"count with a leading zero", `{"scheme":` + env + `,"counts":[04,6],"total":10}`, false},
		{"count outside int", `{"scheme":` + env + `,"counts":[9223372036854775808,6]}`, false},
		{"matrix entry outside float64", `{"matrix":{"categories":2,"columns":[[1e400,0.2],[0.2,0.8]]},"counts":[4,6]}`, false},
		{"matrix entry outside JSON's grammar", `{"matrix":{"categories":2,"columns":[[.8,0.2],[0.2,0.8]]},"counts":[4,6]}`, false},
		{"trailing data", `{"scheme":` + env + `,"counts":[4,6],"total":10} {}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore([]byte(tc.data), 1); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Restore: err = %v, want ErrBadSnapshot", err)
			}
			if _, err := RestoreOnto([]byte(tc.data), 1, c.Scheme(), enc); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("RestoreOnto: err = %v, want ErrBadSnapshot", err)
			}
			_, raw, err := oracleSnapshot([]byte(tc.data))
			if err == nil && len(raw.Counts) != 2 {
				err = errors.New("counts do not cover the report space")
			}
			if jsonRead := err == nil; jsonRead != tc.jsonRead {
				t.Fatalf("encoding/json read it: %v (err %v), want %v", jsonRead, err, tc.jsonRead)
			}
		})
	}
	// The base every rejection above mutates restores on both paths.
	base := []byte(`{"scheme":` + env + `,"counts":[4,6],"total":10}`)
	if _, err := Restore(base, 1); err != nil {
		t.Fatalf("Restore refuses the base snapshot: %v", err)
	}
	if _, err := RestoreOnto(base, 1, c.Scheme(), enc); err != nil {
		t.Fatalf("RestoreOnto refuses the base snapshot: %v", err)
	}
}
