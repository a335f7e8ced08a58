package wal

// Durability-layer telemetry, on the process-wide obs.Default registry.
// The log is single-writer (the view's apply path), so every recording
// site uses the atomic fast-path API; fsync and checkpoint latencies are
// behind obs.Enabled because they add time.Now pairs to the commit path.

import (
	"sync"

	"rxview/internal/obs"
)

type walMetrics struct {
	fsyncDur   *obs.Histogram
	fsyncs     *obs.Counter
	appends    *obs.Counter
	appendRecs *obs.Counter
	bytes      *obs.Counter
	segBytes   *obs.Gauge
	rotations  *obs.Counter

	ckptDur   *obs.Histogram
	ckptBytes *obs.Histogram
	ckpts     *obs.Counter

	replayRecs  *obs.Counter
	replaySegs  *obs.Counter
	replayWarns *obs.Counter
}

var (
	walOnce sync.Once
	wm      *walMetrics
)

func walmetrics() *walMetrics {
	walOnce.Do(func() {
		r := obs.Default()
		wm = &walMetrics{
			fsyncDur: r.NewHistogram("xview_wal_fsync_seconds",
				"fsync latency on the active WAL segment.", obs.LatencyBounds()),
			fsyncs: r.NewCounter("xview_wal_fsyncs_total",
				"fsyncs issued on the active WAL segment."),
			appends: r.NewCounter("xview_wal_appends_total",
				"Append calls (one per committed write unit batch)."),
			appendRecs: r.NewCounter("xview_wal_records_total",
				"Commit records appended to the log."),
			bytes: r.NewCounter("xview_wal_appended_bytes_total",
				"Framed bytes appended to WAL segments."),
			segBytes: r.NewGauge("xview_wal_segment_bytes",
				"Bytes written to the active segment since its rotation (header included)."),
			rotations: r.NewCounter("xview_wal_rotations_total",
				"Segment rotations (one per checkpoint)."),
			ckptDur: r.NewHistogram("xview_wal_checkpoint_seconds",
				"Checkpoint write on the writer, for checkpoints that completed: log sync, the file (frame, write over ckpt.next, truncate, fsync, rename, directory fsync), log rotation and prune. State serialization is xview_checkpoint_encode_seconds; the two add up to the stall /healthz reports as checkpointing.",
				obs.LatencyBounds()),
			ckptBytes: r.NewHistogram("xview_wal_checkpoint_bytes",
				"Checkpoint file sizes.", obs.ExpBounds(1024, 4, 12)),
			ckpts: r.NewCounter("xview_wal_checkpoints_total",
				"Checkpoints written."),
			replayRecs: r.NewCounter("xview_wal_replay_records_total",
				"Commit records replayed during boot recovery."),
			replaySegs: r.NewCounter("xview_wal_replay_segments_total",
				"Segments read during boot recovery."),
			replayWarns: r.NewCounter("xview_wal_replay_warnings_total",
				"Non-fatal recovery findings (torn tails truncated, unreadable newest checkpoints skipped)."),
		}
	})
	return wm
}

// syncTimed wraps one fsync of the active segment with latency accounting.
func (l *Log) syncTimed() error {
	m := walmetrics()
	sp := obs.StartSpan(m.fsyncDur)
	err := l.f.Sync()
	sp.End()
	m.fsyncs.Inc()
	return err
}
