package obs

import "time"

// Span is the lightweight tracing primitive: one timed stage of a
// pipeline, bound to the histogram that aggregates it. StartSpan takes
// the timestamp only while instrumentation is enabled, so a stripped run
// pays a single atomic load; End on a disabled span is free. A span is a
// value — no allocation, safe to pass and to drop.
//
//	sp := obs.StartSpan(applyHist)
//	... do the work ...
//	sp.End()
//
// Elapsed supports spans whose duration feeds something besides the
// histogram (the slow log, a report field) without a second clock read.
type Span struct {
	h  *Histogram
	t0 time.Time
	on bool
}

// StartSpan opens a span over h (h may be nil for a pure timer).
func StartSpan(h *Histogram) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{h: h, t0: time.Now(), on: true}
}

// End observes the elapsed time and returns it; zero on a disabled span.
func (s Span) End() time.Duration {
	if !s.on {
		return 0
	}
	d := time.Since(s.t0)
	if s.h != nil {
		s.h.Observe(d)
	}
	return d
}

// Active reports whether the span is collecting (instrumentation was
// enabled at StartSpan).
func (s Span) Active() bool { return s.on }
