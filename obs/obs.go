// Package obs is the public face of the telemetry core in
// rxview/internal/obs. It contains no logic of its own — only type
// aliases and thin forwards — and exists so packages the internal
// boundary keeps out (the server layer, bench/, programs built on the
// library) can register and read metrics without importing internal
// packages. The internalboundary lint rule lists this package as a
// sanctioned gateway, the same standing the root rxview package has;
// first-party cmd/ tools may import internal packages directly but use
// this facade wherever they share values with the server package.
//
// See the internal package's documentation for the design: atomic
// fast-path recording vs the locked Gather/snapshot side, the Default
// versus per-instance registry split, and the SetEnabled switch that
// strips the timing instrumentation.
package obs

import (
	"context"
	"io"

	iobs "rxview/internal/obs"
)

// Core registry types, aliased so values flow freely between the public
// and internal halves of the instrumentation.
type (
	Registry     = iobs.Registry
	Counter      = iobs.Counter
	Gauge        = iobs.Gauge
	Histogram    = iobs.Histogram
	HistSnapshot = iobs.HistSnapshot
	Label        = iobs.Label
	Family       = iobs.Family
	Sample       = iobs.Sample
	SlowLog      = iobs.SlowLog
	SlowEntry    = iobs.SlowEntry
	ParsedFamily = iobs.ParsedFamily
	ParsedSample = iobs.ParsedSample
	Span         = iobs.Span
)

// StartSpan opens a timed span over h (nil for a pure timer); free when
// instrumentation is disabled.
func StartSpan(h *Histogram) Span { return iobs.StartSpan(h) }

// NewRegistry returns an empty registry for per-instance metric sets.
func NewRegistry() *Registry { return iobs.NewRegistry() }

// Default returns the process-wide registry (pipeline, WAL, caches).
func Default() *Registry { return iobs.Default() }

// Enabled reports whether timing instrumentation is collected.
func Enabled() bool { return iobs.Enabled() }

// SetEnabled turns timing instrumentation on or off process-wide;
// counters and gauges keep counting either way.
func SetEnabled(on bool) { iobs.SetEnabled(on) }

// NewSlowLog returns a slow-operation ring buffer of the given capacity.
func NewSlowLog(capacity int) *SlowLog { return iobs.NewSlowLog(capacity) }

// WithRouteSlot returns a context carrying slot; the query it is passed to
// stores the name of its XPath evaluation route there.
func WithRouteSlot(ctx context.Context, slot *string) context.Context {
	return iobs.WithRouteSlot(ctx, slot)
}

// WritePrometheus encodes the registries in Prometheus text exposition.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	return iobs.WritePrometheus(w, regs...)
}

// WriteVars encodes the registries as a JSON object for /debug/vars.
func WriteVars(w io.Writer, regs ...*Registry) error {
	return iobs.WriteVars(w, regs...)
}

// GatherAll merges the families of several registries in argument order.
func GatherAll(regs ...*Registry) []Family { return iobs.GatherAll(regs...) }

// ParseExposition parses Prometheus text back into families — the
// verification half used by tests and xviewctl.
func ParseExposition(r io.Reader) ([]ParsedFamily, error) {
	return iobs.ParseExposition(r)
}

// LatencyBounds returns the standard latency bucket bounds in seconds.
func LatencyBounds() []float64 { return iobs.LatencyBounds() }

// CountBounds returns doubling bucket bounds for small-count histograms.
func CountBounds(n int) []float64 { return iobs.CountBounds(n) }

// ExpBounds returns n exponential bucket bounds start, start*factor, ....
func ExpBounds(start, factor float64, n int) []float64 {
	return iobs.ExpBounds(start, factor, n)
}
