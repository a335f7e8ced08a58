package server

// Per-engine telemetry. Every Engine owns a private obs.Registry so two
// engines in one process never collide and Stats stays per-engine; the
// HTTP layer scrapes it together with the process-wide obs.Default
// registry (pipeline, WAL, caches). Recording sites below run on the
// apply loop or the wait-free read path and therefore use only the atomic
// fast-path API — the locked Gather/snapshot side is reserved for the
// scrape handlers (the xviewlint obshotpath analyzer checks this).

import (
	"time"

	"rxview/internal/obs"
)

// engineMetrics bundles the handles the engine's hot paths record into.
type engineMetrics struct {
	reg  *obs.Registry
	slow *obs.SlowLog

	queries     *obs.Counter
	applied     *obs.Counter
	rejected    *obs.Counter
	txCommits   *obs.Counter
	txRejected  *obs.Counter
	coalRuns    *obs.Counter
	coalUpds    *obs.Counter
	snapSwaps   *obs.Counter
	memoHits    *obs.Counter
	memoMisses  *obs.Counter
	memoCarried *obs.Counter
	memoDropped *obs.Counter

	// Resilience families: overload shedding and degraded-mode serving.
	shed       *obs.Counter
	probes     *obs.Counter
	recoveries *obs.Counter

	// Follower families: zero on primary engines, recorded by the follow
	// loop on replicas (see replica.go).
	followRecs       *obs.Counter
	followResyncs    *obs.Counter
	followReconnects *obs.Counter

	depth     *obs.Gauge // queued, not yet picked up by the loop
	degradedG *obs.Gauge // 1 while the view is degraded (read-only)
	followLag *obs.Gauge // follower generations behind the primary's durable watermark

	queryDur   *obs.Histogram
	publishDur *obs.Histogram
	runSize    *obs.Histogram
	readerLag  *obs.Histogram
	queueWait  *obs.Histogram
}

// newEngineMetrics registers the engine families on a fresh registry.
func newEngineMetrics() engineMetrics {
	r := obs.NewRegistry()
	return engineMetrics{
		reg:  r,
		slow: obs.NewSlowLog(128),
		queries: r.NewCounter("xview_engine_queries_total",
			"Engine.Query calls (memo hits included)."),
		applied: r.NewCounter("xview_engine_updates_applied_total",
			"Updates the apply loop applied."),
		rejected: r.NewCounter("xview_engine_updates_rejected_total",
			"Client write submissions delivered with an error."),
		txCommits: r.NewCounter("xview_engine_tx_committed_total",
			"Atomic groups committed."),
		txRejected: r.NewCounter("xview_engine_tx_rejected_total",
			"Atomic groups rejected or rolled back."),
		coalRuns: r.NewCounter("xview_engine_coalesced_runs_total",
			"Prefix runs that staged two or more updates (a batch's members included) under one commit."),
		coalUpds: r.NewCounter("xview_engine_coalesced_updates_total",
			"Updates staged in such runs."),
		snapSwaps: r.NewCounter("xview_engine_snapshot_swaps_total",
			"Epoch publications (snapshot seal + swap)."),
		memoHits: r.NewCounter("xview_engine_memo_hits_total",
			"Queries served from the per-epoch result memo."),
		memoMisses: r.NewCounter("xview_engine_memo_misses_total",
			"Queries evaluated past the per-epoch result memo."),
		memoCarried: r.NewCounter("xview_engine_memo_carried_total",
			"Memo answers a snapshot publication carried into the new epoch: the seal's delta missed what they read."),
		memoDropped: r.NewCounter("xview_engine_memo_dropped_total",
			"Memo answers a snapshot publication left behind: the seal's delta touched what they read, or was unknown."),
		shed: r.NewCounter("xview_engine_writes_shed_total",
			"Writes refused by admission control (queue at watermark or estimated wait past the deadline)."),
		probes: r.NewCounter("xview_engine_recovery_probes_total",
			"Degraded-mode recovery attempts executed by the apply loop."),
		recoveries: r.NewCounter("xview_engine_recoveries_total",
			"Successful degraded-to-read-write transitions."),
		followRecs: r.NewCounter("xview_follower_records_total",
			"Streamed commit records this follower applied."),
		followResyncs: r.NewCounter("xview_follower_resyncs_total",
			"Checkpoint re-fetches after a pruned or gapped stream."),
		followReconnects: r.NewCounter("xview_follower_reconnects_total",
			"Stream reconnects after a transport failure (clean long-poll recycles excluded)."),
		depth: r.NewGauge("xview_engine_queue_depth",
			"Write submissions queued for the apply loop."),
		degradedG: r.NewGauge("xview_engine_degraded",
			"1 while the view is degraded (read-only after a disk failure), else 0."),
		followLag: r.NewGauge("xview_follower_lag",
			"Generations between this follower and the primary's durable watermark (0 on primaries)."),
		queryDur: r.NewHistogram("xview_engine_query_seconds",
			"Engine.Query evaluation latency past the result memo (memo hits are counter-only: timing them would dominate their cost).",
			obs.LatencyBounds()),
		publishDur: r.NewHistogram("xview_engine_publish_seconds",
			"Epoch publication latency: sealing the copy-on-write snapshot plus the pointer swap.",
			obs.LatencyBounds()),
		runSize: r.NewHistogram("xview_engine_coalesced_run_updates",
			"Updates per such run (a run of one is not observed).", obs.CountBounds(8)),
		readerLag: r.NewHistogram("xview_engine_reader_generation_lag",
			"Generations between the epoch a memo-missing query read and the newest delivered write at that moment.",
			obs.CountBounds(12)),
		queueWait: r.NewHistogram("xview_engine_queue_wait_seconds",
			"Time a write submission spent queued before the apply loop picked it up.",
			obs.LatencyBounds()),
	}
}

// Metrics returns the engine's private metric registry, for scraping
// alongside obs.Default(). Locked-API side — handlers and tools only.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// SlowLog returns the engine's slow-operation ring buffer.
func (e *Engine) SlowLog() *obs.SlowLog { return e.met.slow }

// SetSlowThreshold sets the duration above which queries and commits land
// in the slow log; zero disables it. Safe for concurrent use.
func (e *Engine) SetSlowThreshold(d time.Duration) { e.met.slow.SetThreshold(d) }

// stampPublish attributes one epoch publication's duration to the write
// unit that triggered it: the run's last applied report gets the Publish
// phase, so summing Timings over delivered reports counts each publication
// once.
func stampPublish(d time.Duration, run []result) {
	if d <= 0 {
		return
	}
	for i := len(run) - 1; i >= 0; i-- {
		for j := len(run[i].reps) - 1; j >= 0; j-- {
			if rep := run[i].reps[j]; rep.Applied {
				rep.Timings.Publish = d
				return
			}
		}
	}
}
