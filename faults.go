package rxview

import (
	"sync/atomic"

	"rxview/internal/fault"
)

// Chaos gateway: the public face of the internal fault-injection framework
// (internal/fault), for operators and load generators. The internal package
// is behind the module's internal boundary; xviewd's -chaos flag and the
// server tests arm faults through here. Injection is process-wide and
// deterministic for a given (spec, seed) pair; when disarmed the
// instrumented code paths cost one atomic load.

// EnableChaos arms a process-wide fault-injection plan from a chaos spec —
// a semicolon-separated list of fault points with options:
//
//	point[:opt[,opt...]][;point...]
//
// where each opt is one of after=N (skip the first N hits), every=N (fire
// every Nth eligible hit), count=N (fire at most N times), prob=F (fire
// with probability F instead of deterministically), latency=DUR (stall for
// DUR instead of returning an error). Example:
//
//	wal.fsync:after=100,count=5;wal.slow-io:latency=5ms,every=10
//
// Arming replaces any previously armed plan. The spec's points must name
// cataloged fault points (see FaultPoints); an unknown point or malformed
// option is an error and leaves the previous plan armed.
func EnableChaos(spec string, seed int64) error {
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		return err
	}
	p, err := fault.NewPlan(seed, rules...)
	if err != nil {
		return err
	}
	fault.Install(p)
	armedPlan.Store(p)
	return nil
}

// armedPlan remembers the plan EnableChaos installed so ChaosFires can
// report firing counts; activation itself is owned by the fault package.
var armedPlan atomic.Pointer[fault.Plan]

// ChaosFires returns how many times each fault point has fired under the
// chaos plan most recently armed by EnableChaos, keyed by point name. The
// counts survive DisableChaos (a soak reads its tally after disarming)
// and reset when a new plan is armed. Nil when EnableChaos was never
// called.
func ChaosFires() map[string]uint64 {
	p := armedPlan.Load()
	if p == nil {
		return nil
	}
	fires := p.Fires()
	out := make(map[string]uint64, len(fires))
	for pt, n := range fires {
		out[pt.String()] = n
	}
	return out
}

// DisableChaos disarms fault injection, restoring the zero-cost disabled
// path. Safe to call when nothing is armed.
func DisableChaos() { fault.Uninstall() }

// FaultPoints returns the catalog of named fault points a chaos spec may
// reference, in stable order.
func FaultPoints() []string {
	pts := fault.Catalog()
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.String()
	}
	return out
}
