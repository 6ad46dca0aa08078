// Command benchdiff compares two benchmark JSON files produced by ci.sh's
// bench-smoke stage and reports per-benchmark deltas. It is the repository's
// benchmark-regression guard: it exits non-zero on a regression beyond the
// thresholds, and ci.sh fails on that unless BENCH_ALLOW_REGRESS=1.
//
// Usage:
//
//	go run ./cmd/benchdiff OLD.json NEW.json
//
// Thresholds (relative to OLD): ns/op may grow by 25% (wall time wobbles on
// shared runners), allocs/op by 5% (allocation counts are deterministic, so
// any growth is a real code change), B/op by 10%.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

type entry map[string]any

// thresholds maps a metric unit to the maximum tolerated relative increase.
// Metrics not listed (front-size, custom b.ReportMetric values) are shown
// but never warned on: they are quality numbers, not costs.
var thresholds = map[string]float64{
	"ns/op":     0.25,
	"allocs/op": 0.05,
	"B/op":      0.10,
}

func load(path string) (map[string]entry, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var list []entry
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]entry, len(list))
	var order []string
	for _, e := range list {
		name, _ := e["name"].(string)
		if name == "" {
			continue
		}
		out[name] = e
		order = append(order, name)
	}
	return out, order, nil
}

func num(e entry, key string) (float64, bool) {
	v, ok := e[key].(float64)
	return v, ok
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	oldSet, _, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newSet, newOrder, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regressions := 0
	for _, name := range newOrder {
		ne := newSet[name]
		oe, ok := oldSet[name]
		if !ok {
			fmt.Printf("NEW   %s (no baseline)\n", name)
			continue
		}
		// Stable key order: thresholded metrics first, then the rest.
		keys := make([]string, 0, len(ne))
		for k := range ne {
			if k == "name" || k == "iterations" {
				continue
			}
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			_, ti := thresholds[keys[i]]
			_, tj := thresholds[keys[j]]
			if ti != tj {
				return ti
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			nv, ok1 := num(ne, k)
			ov, ok2 := num(oe, k)
			if !ok1 || !ok2 {
				continue
			}
			var rel float64
			if ov != 0 {
				rel = (nv - ov) / ov
			}
			limit, gated := thresholds[k]
			switch {
			case gated && rel > limit:
				regressions++
				fmt.Printf("WARN  %s %s: %.4g -> %.4g (%+.1f%%, limit %+.0f%%)\n",
					name, k, ov, nv, rel*100, limit*100)
			case gated:
				fmt.Printf("ok    %s %s: %.4g -> %.4g (%+.1f%%)\n", name, k, ov, nv, rel*100)
			}
		}
	}
	for name := range oldSet {
		if _, ok := newSet[name]; !ok {
			fmt.Printf("GONE  %s (in baseline, not in new run)\n", name)
		}
	}
	if regressions > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond threshold\n", regressions)
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions beyond thresholds")
}
