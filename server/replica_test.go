package server_test

// Tests of the replication runtime: end-to-end primary/follower convergence
// over HTTP, a differential stress run against a sequential oracle (prefix
// consistency — every follower read at generation g matches the primary's
// state after exactly g writes), follower kill-and-restart catch-up, the
// "following" readiness state, the 421 write-refusal contract, and
// multi-tenant registry isolation.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rxview"
	"rxview/server"
)

// mustPrimary opens a durable registrar view, wraps it in an engine, and
// serves it — replication endpoints included — over httptest. The short
// stream window of export_test.go keeps the long-poll cycles fast.
func mustPrimary(t *testing.T, opts ...rxview.Option) (*httptest.Server, *server.Engine, *rxview.View) {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rxview.ParseFsyncPolicy("off")
	if err != nil {
		t.Fatal(err)
	}
	base := []rxview.Option{
		rxview.WithForceSideEffects(), // churn deletes are side-effecting
		rxview.WithDurability(t.TempDir()),
		rxview.WithFsync(pol),
		rxview.WithCheckpointEvery(1 << 20), // keep every record on the stream
	}
	view, err := rxview.Open(atg, db, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { view.Close() })
	src, err := view.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	eng := server.New(view)
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(server.NewHandler(eng, server.HandlerOptions{
		Timeout: 5 * time.Second,
		Repl:    src,
	}))
	t.Cleanup(ts.Close)
	return ts, eng, view
}

// mustFollower boots a follower of the given primary URL over a fresh
// registrar schema; it reconnects on export_test.go's short backoff. The
// caller owns Close.
func mustFollower(t *testing.T, primary string, opts ...server.ReplicaOption) *server.Replica {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rxview.OpenReplica(atg, db, rxview.WithForceSideEffects())
	if err != nil {
		t.Fatal(err)
	}
	return server.NewReplica(rep, primary, opts...)
}

// waitConverged blocks until the follower has replayed through target.
func waitConverged(t *testing.T, f *server.Replica, target uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.Status().Generation < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at generation %d, want %d", f.Status().Generation, target)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// engineFingerprint captures an engine's externally observable state from
// its published snapshot: generation plus the serialized view.
func engineFingerprint(t *testing.T, e *server.Engine) string {
	t.Helper()
	sn := e.Snapshot()
	xml, err := sn.XML(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("gen=%d\n%s", sn.Generation(), xml)
}

// churnUpdate returns the i-th update of a deterministic, endlessly
// applicable write sequence against the registrar dataset.
func churnUpdate(i int) rxview.Update {
	if i%2 == 0 {
		return rxview.Insert(`//course[cno="CS650"]/takenBy`, "student",
			rxview.Str(fmt.Sprintf("SR%d", i)), rxview.Str("Repl"))
	}
	return rxview.Delete(fmt.Sprintf(`//student[sno="SR%d"]`, i-1))
}

// TestReplicaFollowsPrimary: the basic loop — writes land on the primary,
// a follower converges through the change-log stream, the states match
// byte for byte, and the follower refuses writes with the 421 contract.
func TestReplicaFollowsPrimary(t *testing.T) {
	ts, eng, _ := mustPrimary(t)
	for i := 0; i < 8; i++ {
		if _, err := eng.Update(t.Context(), churnUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}

	f := mustFollower(t, ts.URL)
	defer f.Close()
	waitConverged(t, f, eng.Generation())

	if p, q := engineFingerprint(t, eng), engineFingerprint(t, f.Engine()); p != q {
		t.Errorf("fingerprint mismatch after convergence:\nprimary:\n%s\nfollower:\n%s", p, q)
	}
	st := f.Status()
	if !st.Following || st.Lag != 0 || st.Primary != ts.URL {
		t.Errorf("Status after convergence = %+v", st)
	}

	// Writes are refused with the typed error carrying the primary address...
	_, err := f.Engine().Update(t.Context(), churnUpdate(100))
	if err == nil || !isReadOnly(err) {
		t.Fatalf("follower Update error = %v, want ErrReadOnlyReplica", err)
	}
	// ...which the HTTP layer turns into 421 + the redirect headers.
	fts := httptest.NewServer(server.NewHandler(f.Engine(), server.HandlerOptions{
		Timeout: 5 * time.Second,
		Follow:  f.Status,
	}))
	defer fts.Close()
	code, out := post(t, fts, "/update", map[string]any{
		"kind": "insert", "type": "student",
		"path":   `//course[cno="CS650"]/takenBy`,
		"values": []any{"SX", "X"},
	})
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("follower /update status = %d %v, want 421", code, out)
	}
	if out["primary"] != ts.URL {
		t.Errorf("421 primary = %v, want %s", out["primary"], ts.URL)
	}
}

func isReadOnly(err error) bool {
	var ro *server.ReadOnlyReplicaError
	return errors.As(err, &ro) && errors.Is(err, server.ErrReadOnlyReplica)
}

// TestReplicaDifferentialStress runs a sequential writer against the
// primary while concurrent readers hammer two followers, and checks every
// sampled read against a per-generation oracle recorded as the writes were
// acknowledged: a result observed at generation g must equal the oracle's
// count at g (prefix consistency), and observed generations must never go
// beyond what the primary committed, nor backwards per reader.
func TestReplicaDifferentialStress(t *testing.T) {
	const writes = 120
	ts, eng, _ := mustPrimary(t)

	// Oracle: student count under CS650 per primary generation, recorded by
	// the (sole) writer as each write is acknowledged — a write that did not
	// apply leaves the generation alone, and its slot, already published, is
	// only compared. Readers only index below the atomic high water mark and
	// published slots are never written again, so no locks are needed.
	//
	// A follower may expose generation g before the primary's writer is
	// acknowledged for g (doc.go, Replication), that is, before the oracle
	// has a slot for it: such a read is not an error. The reader sets it
	// aside, and it is checked like any other once the writer has finished
	// — against the oracle, and against the primary's final generation.
	type sample struct {
		gen   uint64
		count int
	}
	oracle := make([]int, writes+1)
	var oracleLen atomic.Uint64
	const path = `//course[cno="CS650"]/takenBy/student`
	base, err := eng.Query(t.Context(), path)
	if err != nil {
		t.Fatal(err)
	}
	oracle[0] = len(base.Nodes)
	oracleLen.Store(1)

	followers := []*server.Replica{mustFollower(t, ts.URL), mustFollower(t, ts.URL)}
	defer func() {
		for _, f := range followers {
			f.Close()
		}
	}()

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		failures atomic.Int64
		checked  atomic.Int64
		early    = make([][]sample, len(followers)) // per reader: reads ahead of the oracle
	)
	errf := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	for ri, f := range followers {
		wg.Add(1)
		go func(ri int, e *server.Engine) {
			defer wg.Done()
			var lastGen uint64
			for !done.Load() {
				res, err := e.Query(t.Context(), path)
				if err != nil {
					errf("reader %d: %v", ri, err)
					return
				}
				if res.Generation < lastGen {
					errf("reader %d: generation went backwards %d -> %d", ri, lastGen, res.Generation)
				}
				lastGen = res.Generation
				if res.Generation >= oracleLen.Load() {
					early[ri] = append(early[ri], sample{res.Generation, len(res.Nodes)})
					continue
				}
				if want := oracle[res.Generation]; len(res.Nodes) != want {
					errf("reader %d: at generation %d saw %d students, oracle says %d", ri, res.Generation, len(res.Nodes), want)
				}
				checked.Add(1)
			}
		}(ri, f.Engine())
	}

	for i := 0; i < writes; i++ {
		if _, err := eng.Update(t.Context(), churnUpdate(i)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(t.Context(), path)
		if err != nil {
			t.Fatal(err)
		}
		if g := res.Generation; g < oracleLen.Load() {
			if oracle[g] != len(res.Nodes) {
				t.Fatalf("write %d left the generation at %d but moved the count %d -> %d", i, g, oracle[g], len(res.Nodes))
			}
			continue
		}
		oracle[res.Generation] = len(res.Nodes)
		oracleLen.Store(res.Generation + 1)
	}
	for _, f := range followers {
		waitConverged(t, f, eng.Generation())
	}
	done.Store(true)
	wg.Wait()

	final := eng.Generation()
	for ri, samples := range early {
		for _, s := range samples {
			switch {
			case s.gen > final:
				// The follower can never expose a generation the primary
				// did not commit.
				errf("reader %d: read at generation %d, the primary stopped at %d", ri, s.gen, final)
			case s.count != oracle[s.gen]:
				errf("reader %d: at generation %d saw %d students, oracle says %d", ri, s.gen, s.count, oracle[s.gen])
			}
			checked.Add(1)
		}
	}
	if checked.Load() == 0 {
		t.Error("readers validated no samples")
	}
	want := engineFingerprint(t, eng)
	for i, f := range followers {
		if got := engineFingerprint(t, f.Engine()); got != want {
			t.Errorf("follower %d final fingerprint diverged", i)
		}
	}
}

// TestReplicaDigestsMatchThePrimary: the state digest is one word per
// generation, so "is the follower what the primary was" needs no view
// comparison. The writer notes the primary's digest at every generation it
// acknowledges; a sampler reads (generation, digest) pairs off the follower's
// published epochs while it replays; every pair the follower reported at a
// generation the primary reported too must be equal, and /healthz on both
// ends says so in two strings.
func TestReplicaDigestsMatchThePrimary(t *testing.T) {
	const writes = 60
	ts, eng, _ := mustPrimary(t)
	digestAt := func(e *server.Engine) (uint64, string) {
		sn := e.Snapshot()
		d, ok := sn.Digest()
		if !ok {
			t.Errorf("generation %d carries no digest", sn.Generation())
		}
		return sn.Generation(), d.String()
	}
	primary := map[uint64]string{}
	gen, d := digestAt(eng)
	primary[gen] = d

	f := mustFollower(t, ts.URL)
	defer f.Close()
	type pair struct {
		gen uint64
		d   string
	}
	var seen []pair
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			gen, d := digestAt(f.Engine())
			if n := len(seen); n == 0 || seen[n-1].gen != gen {
				seen = append(seen, pair{gen, d})
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < writes; i++ {
		if _, err := eng.Update(t.Context(), churnUpdate(i)); err != nil {
			t.Fatal(err)
		}
		gen, d := digestAt(eng)
		primary[gen] = d
	}
	waitConverged(t, f, eng.Generation())
	close(done)
	<-sampled

	compared := 0
	for _, p := range seen {
		// Generation 0 before the first restore is the follower's own
		// provisional state, which here is the primary's genesis too.
		if want, ok := primary[p.gen]; ok {
			compared++
			if p.d != want {
				t.Errorf("generation %d: follower digest %s, primary %s", p.gen, p.d, want)
			}
		}
	}
	if len(primary) < 2 || compared < 2 {
		t.Fatalf("compared %d of the follower's %d generations against the primary's %d", compared, len(seen), len(primary))
	}

	fts := httptest.NewServer(server.NewHandler(f.Engine(), server.HandlerOptions{Timeout: 5 * time.Second, Follow: f.Status}))
	defer fts.Close()
	_, ph := get(t, ts, "/healthz")
	_, fh := get(t, fts, "/healthz")
	if ph["digest"] == nil || ph["digest"] != fh["digest"] || ph["generation"] != fh["generation"] {
		t.Errorf("/healthz: primary %v, follower %v", ph, fh)
	}
}

// TestReplicaKillAndRestart: a follower is killed mid-stream (Close is the
// in-process SIGKILL — no graceful handoff to the primary), the primary
// keeps writing, and a fresh follower booted later re-syncs from the
// checkpoint+stream and converges to an identical fingerprint.
func TestReplicaKillAndRestart(t *testing.T) {
	ts, eng, _ := mustPrimary(t)
	for i := 0; i < 10; i++ {
		if _, err := eng.Update(t.Context(), churnUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	f := mustFollower(t, ts.URL)
	waitConverged(t, f, eng.Generation())
	f.Close()

	// The primary moves on while the follower is down.
	for i := 10; i < 30; i++ {
		if _, err := eng.Update(t.Context(), churnUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}

	f2 := mustFollower(t, ts.URL)
	defer f2.Close()
	waitConverged(t, f2, eng.Generation())
	if p, q := engineFingerprint(t, eng), engineFingerprint(t, f2.Engine()); p != q {
		t.Errorf("restarted follower fingerprint diverged:\nprimary:\n%s\nfollower:\n%s", p, q)
	}
}

// TestHealthzFollowing: a handler with a Follow source reports 503
// "following" until the follower is inside its watermark, then ready; the
// lag is surfaced either way. Driven through a fake status so the
// transition is deterministic.
func TestHealthzFollowing(t *testing.T) {
	eng, _ := mustRegistrarEngine(t)
	var lagging atomic.Bool
	lagging.Store(true)
	status := func() server.FollowStatus {
		if lagging.Load() {
			return server.FollowStatus{Lag: 40, Watermark: 8, Following: false}
		}
		return server.FollowStatus{Lag: 1, Watermark: 8, Following: true}
	}
	ts := httptest.NewServer(server.NewHandler(eng, server.HandlerOptions{
		Timeout: 5 * time.Second,
		Follow:  status,
	}))
	defer ts.Close()

	code, out := get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || out["state"] != "following" || out["lag"] != float64(40) {
		t.Errorf("/healthz lagging = %d %v, want 503 following lag=40", code, out)
	}
	if code, _ := get(t, ts, "/livez"); code != http.StatusOK {
		t.Errorf("/livez while following != 200")
	}
	lagging.Store(false)
	code, out = get(t, ts, "/healthz")
	if code != http.StatusOK || out["ok"] != true {
		t.Errorf("/healthz caught up = %d %v, want 200", code, out)
	}

	// Gate integration: the same status source drives the gate's state.
	lagging.Store(true)
	g := server.NewGate("loading")
	g.SetReady(eng, server.HandlerOptions{Timeout: 5 * time.Second, Follow: status})
	if got := g.State(); got != "following" {
		t.Errorf("Gate state while lagging = %q, want following", got)
	}
	lagging.Store(false)
	if got := g.State(); got != "ready" {
		t.Errorf("Gate state caught up = %q, want ready", got)
	}
}

// TestRegistryMultiTenant hosts three named views — two independent
// primaries and a follower of the first, all behind one mux — and checks
// routing, per-view generation and metric isolation, the /views index, the
// aggregate health roll-up, and the 421 contract through the /v/ prefix.
func TestRegistryMultiTenant(t *testing.T) {
	reg := server.NewRegistry()
	ga, gb, gc := server.NewGate("loading"), server.NewGate("loading"), server.NewGate("loading")
	for name, g := range map[string]*server.Gate{"alpha": ga, "beta": gb, "mirror": gc} {
		if err := reg.Add(name, g); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	// While everything still boots the index lists all three and the
	// aggregate readiness refuses traffic.
	code, out := get(t, ts, "/views")
	if code != http.StatusOK || len(out["views"].([]any)) != 3 {
		t.Fatalf("/views during boot = %d %v", code, out)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("aggregate /healthz during boot != 503")
	}
	if code, _ := post(t, ts, "/v/alpha/query", map[string]any{"path": "//course"}); code != http.StatusServiceUnavailable {
		t.Errorf("/v/alpha/query during boot != 503")
	}
	if code, _ := post(t, ts, "/v/nosuch/query", map[string]any{"path": "//course"}); code != http.StatusNotFound {
		t.Errorf("unknown view != 404")
	}

	// alpha: a durable primary with replication endpoints.
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := rxview.ParseFsyncPolicy("off")
	va, err := rxview.Open(atg, db, rxview.WithDurability(t.TempDir()), rxview.WithFsync(pol))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { va.Close() })
	src, err := va.ReplSource()
	if err != nil {
		t.Fatal(err)
	}
	ea := server.New(va)
	t.Cleanup(ea.Close)
	ga.SetReady(ea, server.HandlerOptions{
		Timeout: 5 * time.Second, Repl: src, PrivateMetricsOnly: true,
	})

	// beta: an in-memory primary, fully independent.
	eb, _ := mustRegistrarEngine(t)
	gb.SetReady(eb, server.HandlerOptions{Timeout: 5 * time.Second, PrivateMetricsOnly: true})

	// mirror: follows alpha through the registry's own /v/alpha prefix —
	// the stream and checkpoint endpoints must route like everything else.
	f := mustFollower(t, ts.URL+"/v/alpha")
	t.Cleanup(f.Close)
	gc.SetReady(f.Engine(), server.HandlerOptions{
		Timeout: 5 * time.Second, Follow: f.Status, PrivateMetricsOnly: true,
	})

	// Writes to alpha move only alpha (and, async, its mirror).
	genB := eb.Generation()
	for i := 0; i < 5; i++ {
		if code, out := post(t, ts, "/v/alpha/update", map[string]any{
			"kind": "insert", "type": "student",
			"path":   `//course[cno="CS650"]/takenBy`,
			"values": []any{fmt.Sprintf("SM%d", i), "Multi"},
		}); code != http.StatusOK {
			t.Fatalf("/v/alpha/update = %d %v", code, out)
		}
	}
	if ea.Generation() == 0 || eb.Generation() != genB {
		t.Errorf("generation isolation broken: alpha=%d beta=%d (want beta unchanged at %d)",
			ea.Generation(), eb.Generation(), genB)
	}
	waitConverged(t, f, ea.Generation())
	if p, q := engineFingerprint(t, ea), engineFingerprint(t, f.Engine()); p != q {
		t.Error("mirror diverged from alpha through registry routing")
	}

	// A write through the mirror is misdirected, and the advertised primary
	// is alpha's prefixed URL.
	code, out = post(t, ts, "/v/mirror/update", map[string]any{
		"kind": "insert", "type": "student",
		"path":   `//course[cno="CS650"]/takenBy`,
		"values": []any{"SZ", "Z"},
	})
	if code != http.StatusMisdirectedRequest || out["primary"] != ts.URL+"/v/alpha" {
		t.Errorf("/v/mirror/update = %d %v, want 421 primary=%s/v/alpha", code, out, ts.URL)
	}

	// All ready: the aggregate health rolls up green and names each view.
	code, out = get(t, ts, "/healthz")
	if code != http.StatusOK || out["ok"] != true {
		t.Errorf("aggregate /healthz all-ready = %d %v", code, out)
	}

	// Metric isolation: alpha's scrape reflects its own writes, beta's
	// counter stayed put, and the top-level scrape carries only the
	// process-wide families — no tenant's engine counters leak up.
	ma := rawGet(t, ts, "/v/alpha/metrics")
	mb := rawGet(t, ts, "/v/beta/metrics")
	top := rawGet(t, ts, "/metrics")
	if !strings.Contains(ma, "xview_engine_updates_applied_total 5") {
		t.Errorf("alpha metrics missing its update count:\n%s", ma)
	}
	if !strings.Contains(mb, "xview_engine_updates_applied_total 0") {
		t.Errorf("beta metrics not isolated:\n%s", mb)
	}
	if strings.Contains(top, "xview_engine_updates_applied_total") {
		t.Errorf("tenant engine families leaked into the registry's top-level /metrics")
	}
}

// rawGet fetches a path and returns the body verbatim (for /metrics).
func rawGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d:\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}
