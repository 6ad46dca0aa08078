package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optrr/internal/mining"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from current output")

// TestDemoGolden pins the whole table pipeline — disguise, reconstructed
// marginals, the decision tree, the pairwise chi-square table and naive
// Bayes — at seed 1, byte for byte. Regenerate with -update-golden only
// after an intended change to the output.
func TestDemoGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-demo", "-independence"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "demo.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./cmd/rrmine -update-golden): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
	}
}

// TestRunWideTable: 64 binary columns have 2^64 joint cells. The tree stage
// needs the full joint, so the run fails with ErrSchema instead of indexing
// a wrapped joint size.
func TestRunWideTable(t *testing.T) {
	const cols = 64
	var csv strings.Builder
	for row := -1; row < 3; row++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				csv.WriteByte(',')
			}
			switch row {
			case -1:
				fmt.Fprintf(&csv, "c%d", c)
			case 2:
				fmt.Fprintf(&csv, "%d", c%2)
			default:
				fmt.Fprintf(&csv, "%d", row)
			}
		}
		csv.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-data", path}, &out)
	if !errors.Is(err, mining.ErrSchema) {
		t.Fatalf("err = %v, want mining.ErrSchema", err)
	}
	var usage usageError
	if errors.As(err, &usage) {
		t.Fatalf("schema failure classified as a usage error: %v", err)
	}
	if !strings.Contains(out.String(), "table: 3 rows, 64 attributes") {
		t.Fatalf("output before the failing stage:\n%s", out.String())
	}
}

// TestRunUsageErrors: bad flags, a missing input source and an unknown class
// attribute are usage errors (exit status 2); the flag-parse failure is the
// one the flag set has already reported.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-demo", "-warner", "1.5"},
		{"-demo", "-depth", "-1"},
		{},
		{"-demo", "-class", "nope"},
	} {
		var usage usageError
		if err := run(args, new(bytes.Buffer)); !errors.As(err, &usage) {
			t.Errorf("run(%v) = %v, want a usage error", args, err)
		}
	}
	var usage usageError
	if err := run([]string{"-no-such-flag"}, new(bytes.Buffer)); !errors.As(err, &usage) || !errors.Is(err, errFlagParse) {
		t.Errorf("unknown flag: err = %v, want a usage error wrapping errFlagParse", err)
	}
	if err := run([]string{"-h"}, new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(0.8, 0); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if err := validateFlags(-0.1, 0); err == nil {
		t.Error("negative warner accepted")
	}
	if err := validateFlags(1.5, 0); err == nil {
		t.Error("warner above one accepted")
	}
	if err := validateFlags(0.8, -1); err == nil {
		t.Error("negative depth accepted")
	}
}

func TestLoadTableDemo(t *testing.T) {
	table, err := loadTable("", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 40000 {
		t.Fatalf("demo rows = %d", table.Len())
	}
	attrs := table.Attributes()
	if len(attrs) != 4 || attrs[3].Name != "approved" {
		t.Fatalf("demo schema = %v", attrs)
	}
	// The demo joint is a proper distribution; marginals must sum to 1 and
	// match their construction.
	inc, err := table.Marginal(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inc[0]-0.4) > 0.01 || math.Abs(inc[2]-0.2) > 0.01 {
		t.Fatalf("income marginal = %v", inc)
	}
}

func TestLoadTableDemoDeterministic(t *testing.T) {
	a, err := loadTable("", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadTable("", true, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for d := 0; d < 4; d++ {
			if a.Row(i)[d] != b.Row(i)[d] {
				t.Fatal("demo table not deterministic")
			}
		}
	}
}

func TestLoadTableFromCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	content := "color,size\nred,small\nblue,big\nred,big\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	table, err := loadTable(path, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() != 3 || len(table.Attributes()) != 2 {
		t.Fatalf("table shape: %d rows, %d attrs", table.Len(), len(table.Attributes()))
	}
}

func TestLoadTableSourceValidation(t *testing.T) {
	if _, err := loadTable("", false, 1); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadTable("x.csv", true, 1); err == nil {
		t.Fatal("two sources accepted")
	}
	if _, err := loadTable("/nonexistent.csv", false, 1); err == nil {
		t.Fatal("missing file accepted")
	}
}
