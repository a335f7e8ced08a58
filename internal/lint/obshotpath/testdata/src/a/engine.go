// Fixture modeling the serving engine's telemetry: fast-path handles on
// the hot paths, the locked snapshot side only outside them.
package a

import "rxview/obs"

type engine struct {
	reg  *obs.Registry
	hits *obs.Counter
	dur  *obs.Histogram
	slow *obs.SlowLog
}

// newEngine registers handles before the loop starts. Registration is not
// the locked snapshot side, so nothing here is flagged.
func newEngine() *engine {
	r := obs.NewRegistry()
	return &engine{
		reg:  r,
		hits: r.NewCounter("hits", ""),
		dur:  r.NewHistogram("dur", "", nil),
		slow: obs.NewSlowLog(8),
	}
}

// run is the apply loop: everything it reaches is hot.
//
// xviewlint:writer-loop
func (e *engine) run() {
	e.hits.Inc()
	e.apply()
	defer func() { e.flush() }()
}

// apply is reachable from run, so its snapshot-side calls are flagged.
func (e *engine) apply() {
	e.dur.Observe(1)
	_ = e.reg.Gather()      // want "locked obs API Gather"
	_, _ = e.slow.Entries() // want "locked obs API Entries"
}

// flush is reached only through run's function literal — still hot.
func (e *engine) flush() {
	_ = obs.WritePrometheus(nil, e.reg) // want "locked obs API WritePrometheus"
}

// query is a wait-free read path, annotated explicitly.
//
// xviewlint:hot-path
func (e *engine) query() {
	e.hits.Inc()
	e.slow.Record("query", "", 0, 0)
	_ = e.dur.Snapshot() // want "locked obs API Snapshot"
}

// lazyRegister models the sync.Once registration idiom: reachable from a
// hot root, but registration is one-time setup, not per-operation work.
//
// xviewlint:hot-path
func (e *engine) lazyRegister() {
	if e.hits == nil {
		e.hits = e.reg.NewCounter("hits", "")
	}
	e.hits.Inc()
}

// scrape is outside both hot graphs: the locked side is its job.
func (e *engine) scrape() {
	_ = e.reg.Gather()
	_ = obs.WritePrometheus(nil, e.reg)
	_, _ = e.slow.Entries()
}

// snapshot methods of other packages are not the obs API; a same-named
// local method must not be confused with obs.Histogram.Snapshot.
type view struct{}

func (v *view) Snapshot() *view { return v }

// xviewlint:hot-path
func (e *engine) publish(v *view) *view { return v.Snapshot() }
