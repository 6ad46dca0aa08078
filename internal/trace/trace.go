// Package trace reads and analyzes the JSONL run traces the optimizer's
// observability seam writes (obs.JSONLRecorder attached via -trace in the
// CLIs). It is the library behind cmd/rrtrace: per-phase timing breakdowns,
// convergence curves, and A/B comparison of two runs — the measurements the
// paper's experiments (Section VI) report as figures.
//
// The format is one JSON object per line with a fixed envelope:
//
//	{"ts":"...","seq":0,"event":"optimizer.start", <event fields>...}
//
// Readers here are tolerant by design: unknown events pass through, missing
// fields read as zero, and blank lines are skipped — a trace from a newer or
// older build should still summarize.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Event is one trace line: the envelope plus the event's own fields.
type Event struct {
	TS     time.Time
	Seq    int
	Name   string
	Fields map[string]any
}

// Float returns the named field as a float64 (JSON numbers decode as
// float64); missing or non-numeric fields read as NaN.
func (e Event) Float(key string) float64 {
	if v, ok := e.Fields[key].(float64); ok {
		return v
	}
	return math.NaN()
}

// Int returns the named field as an int; missing or non-numeric fields read
// as 0.
func (e Event) Int(key string) int {
	if v, ok := e.Fields[key].(float64); ok {
		return int(v)
	}
	return 0
}

// Bool returns the named field as a bool; missing or non-bool fields read as
// false.
func (e Event) Bool(key string) bool {
	v, _ := e.Fields[key].(bool)
	return v
}

// ReadAll parses a JSONL trace. Blank lines are skipped; a malformed line
// aborts with an error naming its line number — except a malformed *final*
// line, which is dropped silently: a killed or crashed run truncates its
// buffered last write mid-line, and those cut-short traces are exactly what
// an analysis tool gets pointed at. The envelope keys (ts, seq, event) are
// lifted out of Fields.
func ReadAll(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // generation events carry whole fronts
	var events []Event
	lineNo := 0
	var pendingErr error // parse failure that is only fatal if more lines follow
	pendingLine := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, fmt.Errorf("trace line %d: %w", pendingLine, pendingErr)
		}
		var fields map[string]any
		if err := json.Unmarshal(line, &fields); err != nil {
			pendingErr, pendingLine = err, lineNo
			continue
		}
		ev := Event{Fields: fields}
		if ts, ok := fields["ts"].(string); ok {
			ev.TS, _ = time.Parse(time.RFC3339Nano, ts)
		}
		if seq, ok := fields["seq"].(float64); ok {
			ev.Seq = int(seq)
		}
		ev.Name, _ = fields["event"].(string)
		delete(fields, "ts")
		delete(fields, "seq")
		delete(fields, "event")
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", lineNo+1, err)
	}
	return events, nil
}

// PhaseTotal is the accumulated wall time of one optimizer phase across a
// run.
type PhaseTotal struct {
	Name    string
	TotalMS float64
}

// Summary condenses one trace: run shape from optimizer.start, per-phase
// totals from the optimizer.generation timings, and the outcome from
// optimizer.done (zero when the trace was cut short).
type Summary struct {
	// From optimizer.start (zero values when the event is absent).
	Categories   int
	Records      int
	Delta        float64
	Generations  int // configured budget
	Engine       string
	Seed         int
	Islands      int // island-model sub-populations; 1 = single population
	MigrateEvery int // migration interval in generations (island runs)

	// Accumulated over optimizer.generation events.
	GenerationsRun int
	Evaluations    int // last generation event's cumulative counter
	Phases         []PhaseTotal

	// Accumulated over the island-model events of an Islands > 1 run.
	Migrations        int // optimizer.migration events seen
	IslandGenerations int // optimizer.island.generation events seen

	// From the last optimizer.convergence event (if any).
	BestHypervolume  float64
	SinceImprovement int
	Stalled          bool

	// From optimizer.done (if present).
	Done      bool
	WallMS    float64
	FrontSize int
	Stagnated bool
}

// phaseFields maps the optimizer.generation timing fields onto display
// names, in presentation order. select/vary/eval/omega partition the
// generation timeline; fitness/truncate are SPEA2 sub-phases that overlap
// select and vary (see core's observability seam), listed after.
var phaseFields = []struct{ field, name string }{
	{"select_ms", "select"},
	{"vary_ms", "vary"},
	{"eval_ms", "eval"},
	{"omega_ms", "omega"},
	{"fitness_ms", "fitness"},
	{"truncate_ms", "truncate"},
}

// Summarize folds a trace into its Summary.
func Summarize(events []Event) Summary {
	var s Summary
	totals := make(map[string]float64, len(phaseFields))
	for _, ev := range events {
		switch ev.Name {
		case "optimizer.start":
			s.Categories = ev.Int("categories")
			s.Records = ev.Int("records")
			s.Delta = ev.Float("delta")
			s.Generations = ev.Int("generations")
			s.Engine, _ = ev.Fields["engine"].(string)
			s.Seed = ev.Int("seed")
			s.Islands = ev.Int("islands")
			s.MigrateEvery = ev.Int("migrate_every")
		case "optimizer.migration":
			s.Migrations++
			// Island runs emit no top-level generation events; the epoch
			// events carry the cumulative depth and evaluation counters.
			if g := ev.Int("gen"); g > s.GenerationsRun {
				s.GenerationsRun = g
			}
			if e := ev.Int("evals"); e > 0 {
				s.Evaluations = e
			}
		case "optimizer.island.generation":
			s.IslandGenerations++
			// Per-island generations carry the same timing fields as the
			// serial ones; summed across islands they form the run's
			// CPU-time phase breakdown.
			for _, p := range phaseFields {
				if v := ev.Float(p.field); !math.IsNaN(v) {
					totals[p.field] += v
				}
			}
		case "optimizer.generation":
			s.GenerationsRun++
			s.Evaluations = ev.Int("evals")
			for _, p := range phaseFields {
				if v := ev.Float(p.field); !math.IsNaN(v) {
					totals[p.field] += v
				}
			}
		case "optimizer.convergence":
			s.BestHypervolume = ev.Float("best_hypervolume")
			s.SinceImprovement = ev.Int("since_improvement")
			s.Stalled = ev.Bool("stalled")
		case "optimizer.done":
			s.Done = true
			s.WallMS = ev.Float("wall_ms")
			s.FrontSize = ev.Int("front_size")
			s.Stagnated = ev.Bool("stagnated")
		}
	}
	for _, p := range phaseFields {
		s.Phases = append(s.Phases, PhaseTotal{Name: p.name, TotalMS: totals[p.field]})
	}
	return s
}

// ConvergencePoint is one generation of a run's convergence curve.
type ConvergencePoint struct {
	Gen              int
	Hypervolume      float64
	BestHypervolume  float64
	Improved         bool
	SinceImprovement int
	Stalled          bool
	OmegaInserts     int
	OmegaEvictions   int
	Spread           float64
}

// ConvergenceCurve extracts the per-generation convergence curve. It prefers
// the dedicated optimizer.convergence events; traces recorded before those
// existed fall back to the hypervolume field of optimizer.generation events,
// reconstructing the monotone best-so-far envelope (churn and spread read as
// zero there). Points come back sorted by generation.
func ConvergenceCurve(events []Event) []ConvergencePoint {
	var pts []ConvergencePoint
	for _, ev := range events {
		if ev.Name != "optimizer.convergence" {
			continue
		}
		pts = append(pts, ConvergencePoint{
			Gen:              ev.Int("gen"),
			Hypervolume:      ev.Float("hypervolume"),
			BestHypervolume:  ev.Float("best_hypervolume"),
			Improved:         ev.Bool("improved"),
			SinceImprovement: ev.Int("since_improvement"),
			Stalled:          ev.Bool("stalled"),
			OmegaInserts:     ev.Int("omega_inserts"),
			OmegaEvictions:   ev.Int("omega_evictions"),
			Spread:           ev.Float("spread"),
		})
	}
	if pts == nil {
		pts = fallbackCurve(events)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Gen < pts[j].Gen })
	return pts
}

// fallbackCurve reconstructs a curve from optimizer.generation events alone.
func fallbackCurve(events []Event) []ConvergencePoint {
	var pts []ConvergencePoint
	best := math.Inf(-1)
	lastImproved := -1
	for _, ev := range events {
		if ev.Name != "optimizer.generation" {
			continue
		}
		gen := ev.Int("gen")
		hv := ev.Float("hypervolume")
		improved := !math.IsNaN(hv) && (lastImproved < 0 || hv > best)
		if improved {
			best = hv
			lastImproved = gen
		}
		since := gen - lastImproved
		if lastImproved < 0 {
			since = gen + 1
		}
		pts = append(pts, ConvergencePoint{
			Gen:              gen,
			Hypervolume:      hv,
			BestHypervolume:  best,
			Improved:         improved,
			SinceImprovement: since,
		})
	}
	return pts
}

// Comparison is the A/B verdict over two convergence curves: how many
// generations each run needed to reach the given fractions of the common
// target — min(bestA, bestB), so both runs are measured against a
// hypervolume both actually reached. -1 marks "never got there".
type Comparison struct {
	Target    float64 // the common hypervolume target
	Fractions []float64
	GensA     []int
	GensB     []int
	BestA     float64
	BestB     float64
	FinalGenA int
	FinalGenB int
}

// DefaultFractions are the convergence milestones Compare reports.
var DefaultFractions = []float64{0.50, 0.90, 0.99, 1.00}

// Compare measures two curves against their common reachable target. Empty
// fractions selects DefaultFractions.
func Compare(a, b []ConvergencePoint, fractions []float64) Comparison {
	if len(fractions) == 0 {
		fractions = DefaultFractions
	}
	c := Comparison{
		Fractions: fractions,
		BestA:     finalBest(a),
		BestB:     finalBest(b),
		FinalGenA: finalGen(a),
		FinalGenB: finalGen(b),
	}
	c.Target = math.Min(c.BestA, c.BestB)
	for _, f := range fractions {
		threshold := f * c.Target
		c.GensA = append(c.GensA, gensToReach(a, threshold))
		c.GensB = append(c.GensB, gensToReach(b, threshold))
	}
	return c
}

func finalBest(pts []ConvergencePoint) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	return pts[len(pts)-1].BestHypervolume
}

func finalGen(pts []ConvergencePoint) int {
	if len(pts) == 0 {
		return -1
	}
	return pts[len(pts)-1].Gen
}

// gensToReach returns the first generation whose best-so-far hypervolume
// meets the threshold, or -1 when the curve never does.
func gensToReach(pts []ConvergencePoint, threshold float64) int {
	for _, p := range pts {
		if p.BestHypervolume >= threshold {
			return p.Gen
		}
	}
	return -1
}
