package optrr

import (
	"io"

	"optrr/internal/obs"
)

// This file re-exports the observability layer: a metrics registry with
// expvar publication, structured JSONL run traces, and a debug HTTP server
// (expvar + net/http/pprof). Everything is standard library only, and the
// disabled path (nil Recorder, nil *Metrics) costs nothing.
//
// Wire a trace into a search via Problem.Recorder, live metrics via
// Problem.Metrics, and a collection campaign via Collector.Instrument. See
// the README's "Observability" section for
// the event schema and metric names.

// Recorder consumes structured trace events. Implementations must be safe
// for concurrent use; see NewJSONLRecorder, NewMemoryRecorder,
// MultiRecorder and NopRecorder.
type Recorder = obs.Recorder

// Fields is the payload of one structured event.
type Fields = obs.Fields

// TraceEvent is one captured event (see MemoryRecorder.Events).
type TraceEvent = obs.Event

// JSONLRecorder writes one JSON object per event — the machine-readable
// run-trace format.
type JSONLRecorder = obs.JSONLRecorder

// MemoryRecorder captures events in memory for programmatic consumption.
type MemoryRecorder = obs.MemoryRecorder

// Metrics is a registry of counters, gauges and histograms; publish it via
// its PublishExpvar method or serve it with ServeDebug.
type Metrics = obs.Registry

// DebugServer serves /debug/vars (expvar), /debug/pprof/ and /metrics.
type DebugServer = obs.Server

// NopRecorder returns the recorder that discards everything at zero cost.
func NopRecorder() Recorder { return obs.Nop }

// NewJSONLRecorder returns a recorder writing JSONL trace events to w.
// Call Flush when the run ends.
func NewJSONLRecorder(w io.Writer) *JSONLRecorder { return obs.NewJSONL(w) }

// NewMemoryRecorder returns an in-memory event recorder.
func NewMemoryRecorder() *MemoryRecorder { return obs.NewMemory() }

// MultiRecorder fans events out to every given recorder.
func MultiRecorder(recs ...Recorder) Recorder { return obs.NewMulti(recs...) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ServeDebug starts a debug HTTP server on addr ("host:port"; ":0" picks a
// free port) exposing expvar, pprof and — when reg is non-nil — the
// registry at /metrics. Close the returned server when done.
func ServeDebug(addr string, reg *Metrics) (*DebugServer, error) {
	return obs.Serve(addr, reg)
}
