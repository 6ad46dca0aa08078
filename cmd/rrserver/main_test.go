package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optrr/internal/rr"
)

func baseFlags() flags {
	return flags{
		addr: "127.0.0.1:0", categories: 4, warnerP: 0.75,
		z: 1.96, snapshotEvery: time.Second, maxBatch: 1 << 10,
		loadBatch: 100, loadWorkers: 2, seed: 1,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flags)
		wantErr string
	}{
		{"defaults ok", func(*flags) {}, ""},
		{"one category", func(f *flags) { f.categories = 1 }, "-categories"},
		{"warner above 1", func(f *flags) { f.warnerP = 1.5 }, "-warner"},
		{"matrix file skips scheme flags", func(f *flags) { f.matrixPath = "m.json"; f.categories = 1 }, ""},
		{"zero z", func(f *flags) { f.z = 0 }, "-z"},
		{"infinite z", func(f *flags) { f.z = math.Inf(1) }, "-z"},
		{"negative max batch", func(f *flags) { f.maxBatch = -1 }, "-max-batch"},
		{"loadtest bad batch", func(f *flags) { f.loadtest = 10; f.loadBatch = 0 }, "-loadtest-batch"},
		{"loadtest bad workers", func(f *flags) { f.loadtest = 10; f.loadWorkers = 0 }, "-loadtest-workers"},
		{"sketch ok", func(f *flags) { f.sketchDomain = 1000; f.hashFuncs = 8; f.hashRange = 64; f.epsilon = 4 }, ""},
		{"sketch with matrix file", func(f *flags) {
			f.sketchDomain = 1000
			f.hashFuncs = 8
			f.hashRange = 64
			f.epsilon = 4
			f.matrixPath = "m.json"
		}, "mutually exclusive"},
		{"sketch bad hash functions", func(f *flags) { f.sketchDomain = 1000; f.hashRange = 64; f.epsilon = 4 }, "-hash-functions"},
		{"sketch bad hash range", func(f *flags) { f.sketchDomain = 1000; f.hashFuncs = 8; f.hashRange = 1; f.epsilon = 4 }, "-hash-range"},
		{"sketch bad epsilon", func(f *flags) { f.sketchDomain = 1000; f.hashFuncs = 8; f.hashRange = 64 }, "-epsilon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := baseFlags()
			tc.mutate(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadMatrix(t *testing.T) {
	f := baseFlags()
	m, err := loadScheme(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Domain() != 4 {
		t.Fatalf("Warner default has %d categories, want 4", m.Domain())
	}
	if m.Kind() != rr.DenseKind {
		t.Fatalf("default scheme kind %q, want dense", m.Kind())
	}

	want, err := rr.Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f.matrixPath = path
	got, err := loadScheme(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain() != 3 {
		t.Fatalf("loaded matrix has %d categories, want 3", got.Domain())
	}

	f.matrixPath = filepath.Join(t.TempDir(), "missing.json")
	if _, err := loadScheme(f); err == nil {
		t.Fatal("missing matrix file accepted")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"categories": 2, "columns": [[0.5, 0.5], [0.7, 0.7]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f.matrixPath = bad
	if _, err := loadScheme(f); err == nil {
		t.Fatal("malformed matrix file accepted")
	}
}

func TestLoadSchemeSketch(t *testing.T) {
	f := baseFlags()
	f.sketchDomain, f.hashFuncs, f.hashRange, f.epsilon, f.hashSeed = 100000, 8, 64, 4, 7
	s, err := loadScheme(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != "cms" {
		t.Fatalf("sketch scheme kind %q, want cms", s.Kind())
	}
	if s.Domain() != 100000 || s.ReportSpace() != 8*64 {
		t.Fatalf("Domain/ReportSpace = %d/%d", s.Domain(), s.ReportSpace())
	}
}
