// Package obs is the public face of the telemetry core in
// rxview/internal/obs, for programs outside this module — the bench/
// harness is one — that read the process's metrics. It contains no logic of
// its own: Default and Registry to name the process-wide registry,
// WritePrometheus and ParseExposition to scrape one in-process, and
// SetEnabled, the switch that strips the timing instrumentation, kept for
// measuring what telemetry costs. Packages of this module import
// rxview/internal/obs directly.
package obs

import (
	"io"

	iobs "rxview/internal/obs"
)

// Registry is a set of metric families, aliased so values flow freely
// between the public and internal halves of the instrumentation.
type Registry = iobs.Registry

// Default returns the process-wide registry (pipeline, WAL, caches).
func Default() *Registry { return iobs.Default() }

// SetEnabled turns timing instrumentation on or off process-wide;
// counters and gauges keep counting either way.
func SetEnabled(on bool) { iobs.SetEnabled(on) }

// WritePrometheus encodes the registries in Prometheus text exposition.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	return iobs.WritePrometheus(w, regs...)
}

// ParseExposition parses Prometheus text back into families.
func ParseExposition(r io.Reader) ([]iobs.ParsedFamily, error) {
	return iobs.ParseExposition(r)
}
