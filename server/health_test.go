package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rxview"
	"rxview/internal/obs"
	"rxview/server"
)

// TestGateReadiness: before SetReady the gate answers liveness 200 but
// readiness (and everything else) 503 with the startup state; after
// SetReady the full API serves. This is the contract that keeps a load
// balancer from routing to a node still replaying its log.
func TestGateReadiness(t *testing.T) {
	g := server.NewGate("recovering")
	ts := httptest.NewServer(g)
	defer ts.Close()

	code, out := get(t, ts, "/livez")
	if code != http.StatusOK || out["ok"] != true {
		t.Errorf("/livez before ready = %d %v, want 200 ok", code, out)
	}
	code, out = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || out["ok"] != false || out["state"] != "recovering" {
		t.Errorf("/healthz before ready = %d %v, want 503 state=recovering", code, out)
	}
	if code, _ := post(t, ts, "/query", map[string]any{"path": "//course"}); code != http.StatusServiceUnavailable {
		t.Errorf("POST /query before ready = %d, want 503", code)
	}

	eng, _ := mustRegistrarEngine(t)
	g.SetReady(eng, server.HandlerOptions{Timeout: 5 * time.Second})
	if g.State() != "ready" {
		t.Errorf("State after SetReady = %q", g.State())
	}
	code, out = get(t, ts, "/healthz")
	if code != http.StatusOK || out["ok"] != true || out["state"] != "ready" {
		t.Errorf("/healthz after ready = %d %v, want 200 ready", code, out)
	}
	if code, out := post(t, ts, "/query", map[string]any{"path": "//course"}); code != http.StatusOK {
		t.Errorf("POST /query after ready = %d %v", code, out)
	}
}

// TestHealthzCheckpointing: an in-flight checkpoint flips readiness to 503
// (state "checkpointing") while liveness stays 200 — the drain signal for
// the writer stall.
func TestHealthzCheckpointing(t *testing.T) {
	eng, _ := mustRegistrarEngine(t)
	var busy atomic.Bool
	ts := httptest.NewServer(server.NewHandler(eng, server.HandlerOptions{
		Timeout:       5 * time.Second,
		Checkpointing: busy.Load,
	}))
	defer ts.Close()

	if code, out := get(t, ts, "/healthz"); code != http.StatusOK || out["state"] != "ready" {
		t.Errorf("/healthz idle = %d %v", code, out)
	}
	busy.Store(true)
	code, out := get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || out["ok"] != false || out["state"] != "checkpointing" {
		t.Errorf("/healthz during checkpoint = %d %v, want 503 checkpointing", code, out)
	}
	if code, out := get(t, ts, "/livez"); code != http.StatusOK || out["ok"] != true {
		t.Errorf("/livez during checkpoint = %d %v, want 200", code, out)
	}
	busy.Store(false)
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after checkpoint = %d, want 200", code)
	}
}

// TestRegistryHealthAgreesWithTenant: the registry's /views and /healthz
// give each tenant the readiness its own /healthz and Gate.State give it —
// while it checkpoints, while it is degraded, and while it is degraded and
// following at once.
func TestRegistryHealthAgreesWithTenant(t *testing.T) {
	ctx := context.Background()
	eng, view := mustDurableEngine(t, t.TempDir())
	t.Cleanup(func() { view.Close() })
	t.Cleanup(eng.Close)
	var checkpointing, lagging atomic.Bool
	g := server.NewGate("loading")
	g.SetReady(eng, server.HandlerOptions{
		Checkpointing: checkpointing.Load,
		Follow:        func() server.FollowStatus { return server.FollowStatus{Following: !lagging.Load()} },
	})
	reg := server.NewRegistry()
	if err := reg.Add("a", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	agree := func(want string) {
		t.Helper()
		code, own := get(t, ts, "/v/a/healthz")
		aggCode, agg := get(t, ts, "/healthz")
		_, views := get(t, ts, "/views")
		listed := views["views"].([]any)[0].(map[string]any)["state"]
		aggState := agg["views"].([]any)[0].(map[string]any)["state"]
		if own["state"] != want || g.State() != want || listed != want || aggState != want || aggCode != code {
			t.Errorf("want %q everywhere: tenant /healthz %d %v, Gate.State %q, /views %v, registry /healthz %d %v",
				want, code, own["state"], g.State(), listed, aggCode, aggState)
		}
	}
	agree("ready")
	checkpointing.Store(true)
	agree("checkpointing")
	checkpointing.Store(false)

	// A refused append degrades the view; failing every checkpoint keeps the
	// recovery prober from healing it until the faults are lifted.
	defer rxview.DisableChaos()
	if err := rxview.EnableChaos("wal.append:count=1;wal.checkpoint", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(ctx, resIns("RH001")); !errors.Is(err, rxview.ErrDegraded) {
		t.Fatalf("update under a refused append: %v, want ErrDegraded", err)
	}
	agree("degraded")
	lagging.Store(true)
	agree("degraded")
	checkpointing.Store(true)
	agree("degraded")

	rxview.DisableChaos()
	waitReadWrite(t, eng)
	agree("checkpointing")
	checkpointing.Store(false)
	agree("following")
	lagging.Store(false)
	agree("ready")
}

// TestMetricsAndDebugEndpoints drives a little traffic and checks the
// introspection surface end to end: /metrics parses as valid exposition
// and covers both the engine's registry and the process-wide one;
// /debug/vars is JSON; /debug/slow reflects the configured threshold.
func TestMetricsAndDebugEndpoints(t *testing.T) {
	ts, eng := newTestServer(t, 5*time.Second, rxview.WithForceSideEffects())
	eng.SetSlowThreshold(time.Nanosecond) // everything is slow: the ring must fill

	ctx := context.Background()
	if _, err := eng.Update(ctx, rxview.Insert(`//course[cno="CS650"]/takenBy`,
		"student", rxview.Str("SM1"), rxview.Str("Metrics"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(ctx, `//student[ssn="SM1"]`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Query(ctx, `//student`); err != nil { // no value filter: swept
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	byName := map[string]obs.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"xview_engine_queries_total",     // engine registry
		"xview_engine_query_seconds",     // engine histogram
		"xview_pipeline_phase_seconds",   // process-wide pipeline registry
		"xview_path_cache_hits_total",    // process-wide cache counters
		"xview_xpath_eval_total",         // evaluations by route
		"xview_xpath_eval_visited_nodes", // cone or down-set size, or the reached nodes for a sweep
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if f := byName["xview_engine_queries_total"]; len(f.Samples) != 1 || f.Samples[0].Value < 3 {
		t.Errorf("xview_engine_queries_total = %+v, want one sample ≥ 3", f.Samples)
	}
	routes := map[string]float64{}
	for _, sm := range byName["xview_xpath_eval_total"].Samples {
		routes[sm.Labels["route"]] = sm.Value
	}
	// The update anchors, the first //student[ssn=…] read goes down from its
	// anchor (the repeats are memo hits and evaluate nothing); //student
	// sweeps.
	if routes["anchored"] < 1 || routes["down"] < 1 || routes["sweep"] < 1 {
		t.Errorf("xview_xpath_eval_total by route = %v, want anchored, down and sweep ≥ 1", routes)
	}

	code, vars := get(t, ts, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	if _, ok := vars["xview_engine_queries_total"]; !ok {
		t.Errorf("/debug/vars missing xview_engine_queries_total: %v", vars)
	}

	code, slow := get(t, ts, "/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow = %d", code)
	}
	if slow["threshold_ns"] != float64(1) {
		t.Errorf("/debug/slow threshold_ns = %v, want 1", slow["threshold_ns"])
	}
	entries, ok := slow["entries"].([]any)
	if !ok || len(entries) == 0 {
		t.Fatalf("/debug/slow entries = %v, want non-empty list", slow["entries"])
	}
	kinds, slowRoutes := map[string]bool{}, map[string]string{}
	for _, e := range entries {
		e := e.(map[string]any)
		kinds[e["kind"].(string)] = true
		slowRoutes[e["detail"].(string)], _ = e["route"].(string)
	}
	if !kinds["query"] || !kinds["commit"] {
		t.Errorf("/debug/slow kinds = %v, want both query and commit", kinds)
	}
	// Every entry names the route its path was evaluated by.
	for detail, route := range slowRoutes {
		want := map[string]string{`//student`: "sweep", `//student[ssn="SM1"]`: "down"}[detail]
		if want == "" {
			want = "anchored"
		}
		if route != want {
			t.Errorf("/debug/slow entry %q: route %q, want %q", detail, route, want)
		}
	}
	if len(slowRoutes) != 3 {
		t.Errorf("/debug/slow details = %v, want the update and the two query paths", slowRoutes)
	}
}
