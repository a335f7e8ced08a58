package core

// Telemetry for the update pipeline and the transaction machinery. All
// series live on the process-wide obs.Default registry: the pipeline is
// shared state (one compiled-path cache, one §2.4 implementation) even
// when several Systems exist, and the per-phase histograms aggregate every
// update the process applies — exactly the shape the paper's Fig.11
// reports per workload. Recording uses only the atomic fast-path API;
// every time.Now pair added here is behind obs.Enabled so a stripped run
// (obs.SetEnabled(false)) pays one atomic load per site.

import (
	"sync"
	"time"

	"rxview/internal/obs"
	"rxview/internal/xpath"
)

// pipelineMetrics holds the handles the pipeline hot paths record into.
type pipelineMetrics struct {
	phase map[string]*obs.Histogram // §2.4 phases, labeled

	evals       [3]*obs.Counter // XPath evaluations, indexed by xpath.Route
	evalVisited *obs.Histogram

	stageDur    *obs.Histogram
	commitDur   *obs.Histogram
	rollbackDur *obs.Histogram
	commits     *obs.Counter
	rollbacks   *obs.Counter
	stagesOK    *obs.Counter
	stagesRej   *obs.Counter
	fullChecks  *obs.Counter
}

var (
	metricsOnce sync.Once
	pm          *pipelineMetrics
)

// metrics lazily registers the pipeline families on the Default registry.
// Lazy (not init) so a process that never opens a System registers
// nothing.
func metrics() *pipelineMetrics {
	metricsOnce.Do(func() {
		r := obs.Default()
		m := &pipelineMetrics{phase: map[string]*obs.Histogram{}}
		for _, ph := range []string{"validate", "eval", "xtodv", "dvtodr", "apply", "maintain", "publish"} {
			m.phase[ph] = r.NewHistogram("xview_pipeline_phase_seconds",
				"Time per update-pipeline phase (the paper's Fig.11 split; publish is seal, memo carry and epoch swap).",
				obs.LatencyBounds(), obs.Label{Key: "phase", Value: ph})
		}
		for _, route := range []xpath.Route{xpath.RouteSweep, xpath.RouteAnchored, xpath.RouteDown} {
			m.evals[route] = r.NewCounter("xview_xpath_eval_total",
				"XPath evaluations by route: anchored (ancestor cone of value-matched candidates, up to the path's window of child steps when no // follows its first step), down (a read of a //-led anchored path, from the anchor nodes downward) or sweep (the whole view).",
				obs.Label{Key: "route", Value: route.String()})
		}
		m.evalVisited = r.NewHistogram("xview_xpath_eval_visited_nodes",
			"Nodes one XPath evaluation propagated over: the cone size (about 110-180 nodes for a value-selected insert at |C|=5000, 35-55 for the delete of its key), the down set's, or the nodes the root reaches for a sweep.",
			obs.ExpBounds(1, 4, 12))
		m.stageDur = r.NewHistogram("xview_txn_stage_seconds",
			"Latency of one staged update inside a transaction (full pipeline run).",
			obs.LatencyBounds())
		m.commitDur = r.NewHistogram("xview_txn_commit_seconds",
			"Transaction commit latency (durability sink, journal commit).",
			obs.LatencyBounds())
		m.rollbackDur = r.NewHistogram("xview_txn_rollback_seconds",
			"Transaction rollback latency (source index undone from the DAG journal's delta, journal unwind, inverse ΔR from the applied reports).",
			obs.LatencyBounds())
		m.commits = r.NewCounter("xview_txn_commits_total", "Transactions committed.")
		m.rollbacks = r.NewCounter("xview_txn_rollbacks_total", "Transactions rolled back (explicit or doomed-at-commit).")
		m.stagesOK = r.NewCounter("xview_txn_stages_total", "Staged updates that applied.")
		m.stagesRej = r.NewCounter("xview_txn_stage_rejections_total", "Staged updates that were rejected.")
		m.fullChecks = r.NewCounter("xview_consistency_checks_total",
			"Full consistency checks run: the view republished from the base tables and compared (operator checks and tests; a restore is verified by digest and never runs one).")
		r.NewCounterFunc("xview_path_cache_hits_total",
			"Compiled-XPath cache hits (process-wide LRU).", func() float64 {
				h, _ := PathCacheStats()
				return float64(h)
			})
		r.NewCounterFunc("xview_path_cache_misses_total",
			"Compiled-XPath cache misses.", func() float64 {
				_, mi := PathCacheStats()
				return float64(mi)
			})
		pm = m
	})
	return pm
}

// observeTimings records one applied update's phase breakdown. The publish
// phase is stamped by the serving layer after the epoch swap and observed
// separately via ObservePublish.
func observeTimings(t Timings) {
	m := metrics()
	m.phase["validate"].Observe(t.Validate)
	m.phase["eval"].Observe(t.Eval)
	m.phase["xtodv"].Observe(t.XToDV)
	m.phase["dvtodr"].Observe(t.DVToDR)
	m.phase["apply"].Observe(t.Apply)
	m.phase["maintain"].Observe(t.Maintain)
}

// ObservePublish records one publication's duration (seal, memo carry and
// swap) into the pipeline phase histogram. Exported for the layers above core that own epoch
// publication.
func ObservePublish(d time.Duration) {
	if !obs.Enabled() {
		return
	}
	metrics().phase["publish"].Observe(d)
}

// observeEval counts one XPath evaluation under its route and records how
// many nodes it visited; it passes its arguments through so every
// evaluation entry point of System and Snapshot wraps its return with it.
func observeEval(res *xpath.Result, err error) (*xpath.Result, error) {
	if err == nil && obs.Enabled() {
		m := metrics()
		m.evals[res.Route].Inc()
		m.evalVisited.ObserveValue(float64(res.Visited))
	}
	return res, err
}
