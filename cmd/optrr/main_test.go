package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestResolvePriorExplicit(t *testing.T) {
	p, err := resolvePrior("0.4, 0.3 ,0.2,0.1", "", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.3, 0.2, 0.1}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("prior = %v", p)
		}
	}
}

func TestResolvePriorRejectsBadExplicit(t *testing.T) {
	if _, err := resolvePrior("0.5,0.6", "", "", 2); err == nil {
		t.Fatal("non-normalized prior accepted")
	}
	if _, err := resolvePrior("0.5,abc", "", "", 2); err == nil {
		t.Fatal("non-numeric prior accepted")
	}
}

func TestResolvePriorExactlyOneSource(t *testing.T) {
	if _, err := resolvePrior("", "", "", 4); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := resolvePrior("0.5,0.5", "normal", "", 2); err == nil {
		t.Fatal("two sources accepted")
	}
}

func TestResolvePriorNamedDistributions(t *testing.T) {
	for _, name := range []string{"normal", "gamma", "uniform", "zipf", "bimodal"} {
		p, err := resolvePrior("", name, "", 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum float64
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s prior sums to %v", name, sum)
		}
	}
	if _, err := resolvePrior("", "nonesuch", "", 10); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestResolvePriorFromDataFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.txt")
	content := "# comment\n0\n1\n1\n\n2\n2\n2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := resolvePrior("", "", path, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("prior = %v, want %v", p, want)
		}
	}
}

func TestResolvePriorDataFileErrors(t *testing.T) {
	if _, err := resolvePrior("", "", "/nonexistent/file", 3); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("0\nseven\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resolvePrior("", "", bad, 3); err == nil {
		t.Fatal("non-numeric record accepted")
	}
	outOfRange := filepath.Join(dir, "range.txt")
	if err := os.WriteFile(outOfRange, []byte("0\n9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resolvePrior("", "", outOfRange, 3); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(10000, 0.8, 3000, 0, 0, 0, 0); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if err := validateFlags(10000, 0.8, 3000, 100, 4, 8, 25); err != nil {
		t.Fatalf("island flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name        string
		records     int
		delta       float64
		generations int
		collectN    int
		workers     int
		islands     int
		migrate     int
	}{
		{name: "zero records", records: 0, delta: 0.8, generations: 3000},
		{name: "negative records", records: -5, delta: 0.8, generations: 3000},
		{name: "zero delta", records: 10000, delta: 0, generations: 3000},
		{name: "delta above one", records: 10000, delta: 1.5, generations: 3000},
		{name: "NaN delta", records: 10000, delta: math.NaN(), generations: 3000},
		{name: "zero generations", records: 10000, delta: 0.8, generations: 0},
		{name: "negative collect", records: 10000, delta: 0.8, generations: 3000, collectN: -1},
		{name: "negative workers", records: 10000, delta: 0.8, generations: 3000, workers: -1},
		{name: "negative islands", records: 10000, delta: 0.8, generations: 3000, islands: -2},
		{name: "negative migrate", records: 10000, delta: 0.8, generations: 3000, migrate: -1},
	} {
		if err := validateFlags(tc.records, tc.delta, tc.generations, tc.collectN, tc.workers, tc.islands, tc.migrate); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestFormatVec(t *testing.T) {
	got := formatVec([]float64{0.5, 0.25})
	if got != "[0.5000 0.2500]" {
		t.Fatalf("formatVec = %q", got)
	}
}
