package obs

import "time"

// Methods only this package's tests call.

// Record notes an operation if it exceeded the threshold. Cheap when it
// did not (or when instrumentation is disabled): one or two atomic loads.
func (l *SlowLog) Record(kind, detail string, d time.Duration, gen uint64) {
	l.RecordRoute(kind, detail, "", d, gen)
}

// Elapsed returns time since start without observing; zero when disabled.
func (s Span) Elapsed() time.Duration {
	if !s.on {
		return 0
	}
	return time.Since(s.t0)
}
