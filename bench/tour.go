package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rxview"
	"rxview/obs"
	"rxview/server"
)

// phaseCounters is what a traced run reads before and after its measured
// phase: process-wide counts whose deltas describe the phase.
type phaseCounters struct {
	mem        runtime.MemStats
	eng        *server.Engine // whose memo counters these are
	memoHits   uint64
	memoMisses uint64
	pathHits   uint64
	pathMisses uint64
	ckpts      float64
}

func (r *runner) readCounters() phaseCounters {
	var pc phaseCounters
	runtime.ReadMemStats(&pc.mem)
	if r.in != nil {
		st := r.in.eng.Stats()
		pc.eng, pc.memoHits, pc.memoMisses = r.in.eng, st.QueryMemoHits, st.QueryMemoMisses
	}
	pc.pathHits, pc.pathMisses = rxview.PathCacheStats()
	pc.ckpts = gathered(obs.Default())["xview_wal_checkpoints_total"]
	return pc
}

// gathered flattens registries into sample name → value, the way a /metrics
// scrape of them names the samples (the engine's own registry and
// obs.Default() are what xviewd's /metrics serves); histograms contribute
// their _sum and _count.
func gathered(regs ...*obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	out := map[string]float64{}
	if err := obs.WritePrometheus(&buf, regs...); err != nil {
		return out
	}
	fams, err := obs.ParseExposition(&buf)
	if err != nil {
		return out
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			if !strings.HasSuffix(s.Name, "_bucket") {
				out[s.Name] += s.Value
			}
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phaseLayers turns the measured phase of a traced run into the per-layer
// metrics only that phase can give: what this workload's traffic did to the
// memo, the allocator, the collector and the checkpointer.
func (r *runner) phaseLayers(before, after phaseCounters) {
	m := r.layers
	hits, misses := float64(after.memoHits-before.memoHits), float64(after.memoMisses-before.memoMisses)
	if after.eng != before.eng {
		// The workload replaced the engine (restart does, every operation):
		// the counters of the last one started at zero.
		hits, misses = float64(after.memoHits), float64(after.memoMisses)
	}
	m["server.memo_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	ph, pm := float64(after.pathHits-before.pathHits), float64(after.pathMisses-before.pathMisses)
	m["xpath.path_cache_hit_ratio"] = metric{ratio(ph, ph+pm), "ratio"}
	m["server.response_bytes_per_op"] = metric{ratio(float64(r.respBytes), float64(r.attempted)), "B"}
	m["client.write_p50_us"] = metric{micros(medianDur(r.writeLat)), "us"}
	m["durability.checkpoints"] = metric{after.ckpts - before.ckpts, "count"}

	m["runtime.alloc_kb_per_op"] = metric{ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, float64(r.attempted)), "KB"}
	m["runtime.gc_cycles"] = metric{float64(after.mem.NumGC - before.mem.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}
	m["runtime.rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	m["env.steal_ratio"] = metric{ratio(r.steal.Seconds(), r.measured.Seconds()), "ratio"}
	m["env.probe_roundtrip_us"] = metric{r.probeRoundTripUS(), "us"}

	var traced, untraced []segment
	for _, s := range r.segs {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	m["bench.trace_overhead_ratio"] = metric{ratio(estimate(atReference(traced)).opsPerSec, estimate(atReference(untraced)).opsPerSec), "ratio"}
}

// updatePhases are the child spans of an Engine.Update span, one per
// Report.Timings field, in pipeline order.
var updatePhases = []string{"core.validate", "xpath.eval_write", "viewupdate.x_to_dv", "viewupdate.dv_to_dr", "storage.apply", "reach.maintain", "server.publish"}

// tour is the layer-probe phase of a traced run. After the measured phase
// it builds one more durable view of the workload's size and walks it
// through every layer from the outside in, with a span around each public
// call: HTTP round trip → Engine.Query → Snapshot.Query, Engine.Update with
// the report's phase timings as child spans, then — the engine stopped —
// View.Snapshot, View.Checkpoint, the follower path (checkpoint bytes →
// Replica.Restore → ApplyRecord over the streamed frames), View.Close, and
// recovery of a crash image. Every number in it is a median over the spans
// of one name.
func (r *runner) tour() error {
	tr, m, ctx := r.tr, r.layers, context.Background()
	med := func(name string) time.Duration { return medianDur(tr.durations(name)) }

	// core.open_ms: the in-memory Open, and on it the cost of sealing an
	// epoch after a write.
	syn, err := generate(r.w.nc)
	if err != nil {
		return err
	}
	sp := tr.start("core.open", tr.request(), -1)
	mem, err := rxview.Open(syn.ATG, syn.DB, rxview.WithForceSideEffects())
	tr.end(sp)
	if err != nil {
		return err
	}
	mem.Snapshot() // the first seal copies everything; what follows is O(Δ)
	key, root := syn.FreshKeys(1)[0], syn.Roots()[0]
	ins := rxview.Insert(fmt.Sprintf(`C[key="%d"]/sub`, root), "C", rxview.Int(key), rxview.Str("w"))
	for i := 0; i < 8; i++ {
		u := ins
		if i%2 == 1 {
			u = rxview.Delete(fmt.Sprintf(`//C[key="%d"]`, key))
		}
		if rep, err := mem.Apply(ctx, u); err != nil || !rep.Applied {
			return fmt.Errorf("seal probe: %s: applied %v: %v", u, rep != nil && rep.Applied, err)
		}
		sp = tr.start("core.seal", tr.request(), -1)
		mem.Snapshot()
		tr.end(sp)
	}
	mem, syn = nil, nil
	runtime.GC()

	// The probe instance: durable, default checkpoint interval, so the
	// updates below stay in the log for the follower and recovery probes.
	cfg := buildConfig{nc: r.w.nc, dir: filepath.Join(r.dir, "tour-wal")}
	in, err := build(cfg, tr)
	if err != nil {
		return err
	}
	defer func() {
		if in != nil {
			_ = in.close()
		}
	}()
	st := in.eng.Snapshot().Stats()
	m["view.nodes"] = metric{float64(st.Nodes), "count"}
	m["view.edges"] = metric{float64(st.Edges), "count"}
	m["view.m_pairs"] = metric{float64(st.MatrixPairs), "count"}

	// Reads, outside in: the same hit through the socket and through
	// Engine.Query; the difference is what HTTP and JSON cost.
	c := newClient(in.url, nil)
	defer c.closeIdle()
	for _, h := range r.hot {
		if _, _, err := c.query(h.body); err != nil {
			return err
		}
	}
	rng := r.segRand(-2)
	const hits = 2048
	for i := 0; i < hits; i++ {
		h := &r.hot[rng.Intn(len(r.hot))]
		req := tr.request()
		sp = tr.start("server.http_roundtrip", req, -1)
		_, count, err := c.query(h.body)
		tr.end(sp)
		if err != nil || count != h.count {
			return fmt.Errorf("tour: %s: count %d, oracle %d: %v", h.path, count, h.count, err)
		}
		sp = tr.start("server.engine_query_hit", req, -1)
		res, err := in.eng.Query(ctx, h.path)
		tr.end(sp)
		if err != nil || len(res.Nodes) != h.count {
			return fmt.Errorf("tour: Engine.Query %s: %d nodes, oracle %d: %v", h.path, len(res.Nodes), h.count, err)
		}
	}
	rt, hit := med("server.http_roundtrip"), med("server.engine_query_hit")
	m["server.http_roundtrip_us"] = metric{micros(rt), "us"}
	m["server.engine_query_hit_us"] = metric{micros(hit), "us"}
	m["server.http_self_us"] = metric{micros(rt - hit), "us"}

	// A memo miss: Snapshot.Query evaluates the path against the epoch.
	sn, nodes := in.eng.Snapshot(), 0
	for k := 0; k < len(r.hot); k += 3 {
		sp = tr.start("xpath.eval_read", tr.request(), -1)
		res, err := sn.Query(ctx, r.hot[k].path)
		tr.end(sp)
		if err != nil || len(res) != r.hot[k].count {
			return fmt.Errorf("tour: Snapshot.Query %s: %d nodes, oracle %d: %v", r.hot[k].path, len(res), r.hot[k].count, err)
		}
		nodes += len(res)
	}
	evals := len(tr.durations("xpath.eval_read"))
	m["xpath.eval_read_us"] = metric{micros(med("xpath.eval_read")), "us"}
	m["xpath.result_nodes_per_query"] = metric{ratio(float64(nodes), float64(evals)), "count"}

	// Writes: one write-heavy period through Engine.Update. The report's
	// phase timings become child spans, so the update span's self time is
	// what the pipeline does not account for: the hand-off to the apply
	// loop, the WAL append and its fsync.
	ws, err := newWriteScript(in)
	if err != nil {
		return err
	}
	// An unrecorded period first, as in the workload's warm-up: the first
	// insertion of a key writes its CU, F and H rows, every later one only
	// what the deletion took away.
	for _, op := range ws.period(rng) {
		if rep, err := in.eng.Update(ctx, op.update); err != nil || !rep.Applied {
			return fmt.Errorf("tour: %s: applied %v: %v", op.update, rep != nil && rep.Applied, err)
		}
	}
	before := gathered(in.eng.Metrics(), obs.Default())
	var mutations int
	for _, op := range ws.period(rng) {
		id := tr.start("server.engine_update", tr.request(), -1)
		rep, err := in.eng.Update(ctx, op.update)
		tr.end(id)
		if err != nil || !rep.Applied {
			return fmt.Errorf("tour: %s: applied %v: %v", op.update, rep != nil && rep.Applied, err)
		}
		t, off := rep.Timings, time.Duration(0)
		for i, d := range []time.Duration{t.Validate, t.Eval, t.XToDV, t.DVToDR, t.Apply, t.Maintain, t.Publish} {
			off = tr.child(updatePhases[i], id, off, d)
		}
		mutations += len(rep.Changes)
	}
	after := gathered(in.eng.Metrics(), obs.Default())
	d := func(name string) float64 { return after[name] - before[name] }
	upd := med("server.engine_update")
	m["server.engine_update_us"] = metric{micros(upd), "us"}
	for _, name := range updatePhases {
		m[name+"_us"] = metric{micros(med(name)), "us"}
	}
	m["core.dr_mutations_per_update"] = metric{float64(mutations) / writePeriod, "count"}
	// The log times its fsyncs but not its appends, and reports a sum, so
	// the append is what is left of the mean self time of an update span
	// after the mean fsync — the hand-off to the apply loop included.
	self := tr.selfTimes("server.engine_update")
	var selfSum time.Duration
	for _, x := range self {
		selfSum += x
	}
	fsync := time.Duration(ratio(d("xview_wal_fsync_seconds_sum"), d("xview_wal_fsync_seconds_count")) * float64(time.Second))
	m["wal.commit_residual_us"] = metric{micros(medianDur(self)), "us"}
	m["wal.fsync_us"] = metric{micros(fsync), "us"}
	m["wal.append_us"] = metric{micros(selfSum/time.Duration(len(self)) - fsync), "us"}
	m["wal.bytes_per_commit"] = metric{ratio(d("xview_wal_appended_bytes_total"), d("xview_wal_appends_total")), "B"}
	m["wal.fsyncs_per_commit"] = metric{ratio(d("xview_wal_fsyncs_total"), d("xview_wal_appends_total")), "count"}
	m["server.queue_wait_us"] = metric{1e6 * ratio(d("xview_engine_queue_wait_seconds_sum"), d("xview_engine_queue_wait_seconds_count")), "us"}
	run := 1.0 // a run of one is applied directly and never observed
	if n := d("xview_engine_coalesced_run_updates_count"); n > 0 {
		run = d("xview_engine_coalesced_run_updates_sum") / n
	}
	m["server.coalesced_run_size"] = metric{run, "count"}
	// Self times partition a span by construction; the ratio shows how much
	// of an update the report's phases account for and how much is left to
	// the commit.
	var total time.Duration
	for _, x := range tr.durations("server.engine_update") {
		total += x
	}
	fmt.Fprintf(os.Stderr, "bench: %s: Engine.Update spans: %.1f%% inside the report's phases, %.1f%% self time (hand-off, WAL append, fsync)\n",
		r.w.name, 100*ratio(float64(total-selfSum), float64(total)), 100*ratio(float64(selfSum), float64(total)))

	// The engine stopped, the view is ours again: the follower path first,
	// while the records are still past the newest checkpoint.
	c.closeIdle()
	if err := in.stopServing(); err != nil {
		return err
	}
	view, src := in.view, in.repl
	primaryNodes := view.Stats().Nodes
	sp = tr.start("repl.checkpoint_bytes", tr.request(), -1)
	gen, state, err := src.CheckpointBytes()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("tour: checkpoint bytes: %w", err)
	}
	fsyn, err := generate(r.w.nc)
	if err != nil {
		return err
	}
	follower, err := rxview.OpenReplica(fsyn.ATG, fsyn.DB, rxview.WithForceSideEffects())
	if err != nil {
		return err
	}
	sp = tr.start("repl.restore", tr.request(), -1)
	err = follower.Restore(gen, state)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("tour: Replica.Restore: %w", err)
	}
	var stream bytes.Buffer
	records := 0
	if err := src.Stream(ctx, gen, time.Millisecond, func(_ uint64, frame []byte) error {
		records++
		_, err := stream.Write(frame)
		return err
	}); err != nil {
		return fmt.Errorf("tour: ReplSource.Stream: %w", err)
	}
	m["repl.stream_bytes_per_record"] = metric{ratio(float64(stream.Len()), float64(records)), "B"}
	for fr := rxview.NewReplFrameReader(&stream); ; {
		rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("tour: decoding the stream: %w", err)
		}
		sp = tr.start("repl.apply_record", tr.request(), -1)
		err = follower.ApplyRecord(rec)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("tour: Replica.ApplyRecord: %w", err)
		}
	}
	if follower.Generation() != view.Generation() || follower.View().Stats().Nodes != primaryNodes {
		return fmt.Errorf("tour: follower at generation %d with %d nodes, primary at %d with %d",
			follower.Generation(), follower.View().Stats().Nodes, view.Generation(), primaryNodes)
	}
	m["repl.checkpoint_bytes_ms"] = metric{millis(med("repl.checkpoint_bytes")), "ms"}
	m["repl.restore_ms"] = metric{millis(med("repl.restore")), "ms"}
	m["repl.apply_record_us"] = metric{micros(med("repl.apply_record")), "us"}
	follower, fsyn = nil, nil

	// The crash image, then an explicit checkpoint and Close.
	image := filepath.Join(r.dir, "tour-image")
	if err := copyDir(cfg.dir, image); err != nil {
		return err
	}
	crashGen := view.Generation()
	sp = tr.start("durability.checkpoint", tr.request(), -1)
	err = view.Checkpoint()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("tour: View.Checkpoint: %w", err)
	}
	det, err := rxview.InspectCheckpoint(cfg.dir)
	if err != nil {
		return err
	}
	m["durability.checkpoint_ms"] = metric{millis(med("durability.checkpoint")), "ms"}
	m["durability.checkpoint_bytes"] = metric{float64(det.StateBytes), "B"}
	sp = tr.start("durability.close", tr.request(), -1)
	err = view.Close()
	tr.end(sp)
	psyn := in.syn
	in = nil
	if err != nil {
		return fmt.Errorf("tour: View.Close: %w", err)
	}
	m["durability.close_ms"] = metric{millis(med("durability.close")), "ms"}

	// Recovery. The restart workload has already measured it, many times,
	// on its own image; elsewhere the tour reopens the image taken above.
	if r.w.name != "restart" {
		replay, err := walRecords(image)
		if err != nil {
			return err
		}
		runtime.GC()
		sp = tr.start("durability.recover", tr.request(), -1)
		rec, err := rxview.Open(psyn.ATG, psyn.DB, viewOptions(buildConfig{dir: image})...)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("tour: recovering the crash image: %w", err)
		}
		recGen := rec.Generation()
		if err := rec.Close(); err != nil {
			return err
		}
		if recGen != crashGen {
			return fmt.Errorf("tour: recovered generation %d, the image was taken at %d", recGen, crashGen)
		}
		m["durability.replay_records"] = metric{float64(replay), "count"}
	} else {
		m["durability.replay_records"] = metric{imageRecords, "count"}
	}
	m["workload.generate_ms"] = metric{millis(med("workload.generate")), "ms"}
	m["core.open_ms"] = metric{millis(med("core.open")), "ms"}
	m["core.open_durable_ms"] = metric{millis(med("core.open_durable")), "ms"}
	m["core.seal_us"] = metric{micros(med("core.seal")), "us"}
	m["durability.recover_ms"] = metric{millis(med("durability.recover")), "ms"}
	m["durability.recover_vs_cold_ratio"] = metric{ratio(float64(med("durability.recover")), float64(med("core.open_durable"))), "ratio"}
	return nil
}
