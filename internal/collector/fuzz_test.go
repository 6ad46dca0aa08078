package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"optrr/internal/rr"
)

// FuzzRestore drives the one snapshot decoder with arbitrary bytes: every
// input either fails with an error wrapping ErrBadSnapshot, or restores a
// collector that encoding/json reads the same from (oracleSnapshot: the
// same scheme, counts and total), whose re-marshalled snapshot is byte for
// byte the nested json.Marshal composition (nestedSnapshot) and restores
// again to the same counts and the same scheme version. RestoreOnto, with
// either seed scheme running, accepts exactly the same inputs and restores
// the same counts and version, whichever path it takes.
func FuzzRestore(f *testing.F) {
	dense := New(mustWarner(f, 3, 0.8), 2)
	sketched := New(testCMS(f, 50, 2, 4), 2)
	var running [][]byte
	for _, c := range []*Collector{dense, sketched} {
		if err := c.IngestBatch([]int{0, 1, 2, 2, 1}); err != nil {
			f.Fatal(err)
		}
		enc, err := c.encoded()
		if err != nil {
			f.Fatal(err)
		}
		running = append(running, enc)
	}
	denseSnap, err := json.Marshal(dense)
	if err != nil {
		f.Fatal(err)
	}
	sketchSnap, err := json.Marshal(sketched)
	if err != nil {
		f.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, sketchSnap, "", "\t"); err != nil {
		f.Fatal(err)
	}
	f.Add(denseSnap)
	f.Add(sketchSnap)
	f.Add([]byte(`{"matrix":{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]},"counts":[4,6],"total":10}`))
	f.Add([]byte(`{"matrix":{"categories":2,"columns":[[0.8,0.2],[0.2,0.8]]},"counts":[4,6]}`))
	f.Add(sketchSnap[:len(sketchSnap)/2])
	f.Add(indented.Bytes())
	_, shapes := snapshotShapes(f)
	for _, s := range shapes {
		f.Add(s.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Restore(data, 2)
		for i, onto := range []*Collector{dense, sketched} {
			got, ontoErr := RestoreOnto(data, 2, onto.Scheme(), running[i])
			if (err == nil) != (ontoErr == nil) {
				t.Fatalf("Restore err %v, RestoreOnto(%s) err %v", err, onto.Scheme().Kind(), ontoErr)
			}
			if ontoErr != nil {
				if !errors.Is(ontoErr, ErrBadSnapshot) {
					t.Fatalf("rejection %v does not wrap ErrBadSnapshot", ontoErr)
				}
				continue
			}
			v1, err1 := c.SchemeVersion()
			v2, err2 := got.SchemeVersion()
			if err1 != nil || err2 != nil || v1 != v2 || !slices.Equal(c.Counts(), got.Counts()) {
				t.Fatalf("RestoreOnto(%s) restored version %s (%v), Restore %s (%v), or other counts",
					onto.Scheme().Kind(), v2, err2, v1, err1)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("rejection %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		checkOracle(t, data, c)
		again := checkSnapshotEncoding(t, c)
		back, err := Restore(again, 1)
		if err != nil {
			t.Fatalf("re-marshalled snapshot rejected: %v", err)
		}
		want, got := c.Counts(), back.Counts()
		if len(got) != len(want) {
			t.Fatalf("round trip changed the report space: %d vs %d", len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("round trip changed count[%d]: %d vs %d", k, got[k], want[k])
			}
		}
		v1, err1 := rr.SchemeVersion(c.Scheme())
		v2, err2 := rr.SchemeVersion(back.Scheme())
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Fatalf("round trip changed the scheme version: %s (%v) vs %s (%v)", v1, err1, v2, err2)
		}
	})
}
