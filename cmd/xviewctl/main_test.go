package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rxview"
	"rxview/internal/obs"
	"rxview/server"
)

func testView(t *testing.T) *rxview.View {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, rxview.WithForceSideEffects())
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestSplitCommands(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{";;;", nil},
		{"stats", []string{"stats"}},
		{"stats; check", []string{"stats", "check"}},
		{`query //course[cno="CS650"]; stats`,
			[]string{`query //course[cno="CS650"]`, "stats"}},
		// Semicolons inside quotes must not split.
		{`query //course[cno="a;b"]; check`,
			[]string{`query //course[cno="a;b"]`, "check"}},
		{`query //course[cno='x;y;z']`,
			[]string{`query //course[cno='x;y;z']`}},
		// A double quote inside single quotes does not open a string.
		{`query //course[cno='a"b;c']; stats`,
			[]string{`query //course[cno='a"b;c']`, "stats"}},
		// Unterminated quote: the rest is one command.
		{`insert course(cno="C1; stats`, []string{`insert course(cno="C1; stats`}},
	}
	for _, tc := range cases {
		if got := splitCommands(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitCommands(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRunOneShot(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	err := runOneShot(view, &out,
		`query //course[cno="CS650"]; insert student(ssn="S77", name="Test") into //course[cno="CS650"]/takenBy; check`)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"1 node(s)", "applied:", "consistent"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunOneShotStopsAtFirstError(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	err := runOneShot(view, &out, "bogus; stats")
	if err == nil {
		t.Fatal("bogus command accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the failing command", err)
	}
	if strings.Contains(out.String(), "rows=") {
		t.Error("commands after the failure still ran")
	}
}

func TestRunREPL(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	in := strings.NewReader("stats\nnonsense\ntables\nquit\nstats\n")
	if err := runREPL(view, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "rows=") {
		t.Error("stats output missing")
	}
	if !strings.Contains(got, "error:") {
		t.Error("command failure not reported to the output")
	}
	if !strings.Contains(got, "course") && !strings.Contains(got, "rows\n") {
		t.Errorf("tables output missing:\n%s", got)
	}
	// Everything after quit is unread.
	if strings.Count(got, "rows=") != 1 {
		t.Error("REPL continued past quit")
	}
}

// errReader fails after yielding its content — the scanner must surface the
// read error instead of treating it as EOF.
type errReader struct {
	data string
	err  error
	done bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if !r.done {
		r.done = true
		return copy(p, r.data), nil
	}
	return 0, r.err
}

func TestRunREPLReportsScannerError(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	boom := errors.New("disk on fire")
	err := runREPL(view, &errReader{data: "stats\n", err: boom}, &out)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "reading input") {
		t.Errorf("error %q lacks the reading-input context", err)
	}
	if !strings.Contains(out.String(), "rows=") {
		t.Error("lines before the failure were not processed")
	}
}

// Plain EOF (no trailing newline) is a clean exit, not an error.
func TestRunREPLCleanEOF(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	if err := runREPL(view, strings.NewReader("check"), &out); err != nil {
		t.Fatalf("clean EOF returned %v", err)
	}
	if !strings.Contains(out.String(), "consistent") {
		t.Error("final unterminated line was not processed")
	}
}

// TestServeSharesDaemonDispatchPath checks the -serve mode serves exactly
// the xviewd handler: the REPL's view, wrapped in a server.Engine, answers
// the daemon's HTTP surface in-process.
func TestServeSharesDaemonDispatchPath(t *testing.T) {
	view := testView(t)
	eng := server.New(view)
	defer eng.Close()
	ts := httptest.NewServer(server.NewHandler(eng, server.HandlerOptions{Timeout: 5 * time.Second}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"path": "//course[cno=\"CS650\"]"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status = %d", resp.StatusCode)
	}
	var out struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 1 {
		t.Errorf("CS650 count = %d, want 1", out.Count)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
}

// The REPL transaction flow: begin/stage/commit applies atomically (one
// generation), rollback restores, and an unfinished transaction is rolled
// back at end of input.
func TestRunREPLTransactionCommit(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	in := strings.NewReader(strings.Join([]string{
		"begin",
		`insert course(cno="CS111", title="Intro") into .`,
		`stage insert course(cno="CS112", title="II") into //course[cno="CS111"]/prereq`,
		`query //course[cno="CS112"]`, // read-your-writes before commit
		"tx",
		"commit",
		"check",
		"quit",
	}, "\n") + "\n")
	if err := runREPL(view, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"transaction open", "staged:", "1 node(s)", "2 staged, 2 applied",
		"committed: 2 update(s) applied atomically, generation now 1", "consistent",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if view.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", view.Generation())
	}
}

func TestRunREPLTransactionRollbackAndGuards(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	in := strings.NewReader(strings.Join([]string{
		"commit", // no open tx: error, loop continues
		"begin",
		"begin", // double begin: error
		"check", // unavailable inside a tx: error
		`insert course(cno="CS111", title="Intro") into .`,
		"rollback",
		`query //course[cno="CS111"]`, // gone
		"check",
		"quit",
	}, "\n") + "\n")
	if err := runREPL(view, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"no open transaction", "already open", "unavailable inside a transaction",
		"rolled back: view and database restored", "0 node(s)", "consistent",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if view.Generation() != 0 {
		t.Fatalf("generation = %d, want 0 after rollback", view.Generation())
	}
	if !strings.Contains(got, "tx> ") {
		t.Error("prompt does not indicate the open transaction")
	}
}

func TestRunREPLUnfinishedTransactionRolledBackAtEOF(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	in := strings.NewReader("begin\ninsert course(cno=\"CS111\", title=\"Intro\") into .\n")
	if err := runREPL(view, in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "open transaction rolled back") {
		t.Errorf("EOF with open tx not reported:\n%s", out.String())
	}
	if view.Generation() != 0 {
		t.Fatal("unfinished transaction leaked state")
	}
	// The view's write path is released.
	if _, err := view.Execute(context.Background(), `insert course(cno="CS113", title="x") into .`); err != nil {
		t.Fatalf("view still locked after EOF rollback: %v", err)
	}
}

func TestRunOneShotTransactionDoomedGroup(t *testing.T) {
	view := testView(t) // ForceSideEffects is on in testView: use a parse failure to doom
	var out strings.Builder
	err := runOneShot(view, &out,
		`begin; insert course(cno="CS111", title="Intro") into .; delete ///[; commit`)
	if err == nil {
		t.Fatal("doomed transaction committed")
	}
	if !strings.Contains(err.Error(), "delete ///[") {
		t.Errorf("error does not name the malformed statement: %v", err)
	}
	if view.Generation() != 0 {
		t.Fatal("doomed group left state applied")
	}
}

func TestWalInspectAndCheckpointSubcommands(t *testing.T) {
	// Build a real durability directory: one committed update, clean close.
	dir := t.TempDir()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	dv, err := rxview.Open(atg, db, rxview.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dv.Apply(context.Background(),
		rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("S77"), rxview.Str("Wal"))); err != nil {
		t.Fatal(err)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}

	view := testView(t)
	var out strings.Builder
	if err := runOneShot(view, &out, "wal inspect "+dir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"checkpoint gen=", "segment start=", "gen=1"} {
		if !strings.Contains(got, want) {
			t.Errorf("wal inspect output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if err := runOneShot(view, &out, "checkpoint "+dir); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	for _, want := range []string{"sealed at generation 1", "DAG:", "student"} {
		if !strings.Contains(got, want) {
			t.Errorf("checkpoint output missing %q:\n%s", want, got)
		}
	}
}

func TestWalInspectUsageAndErrors(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	if err := runOneShot(view, &out, "wal inspect"); err == nil {
		t.Fatal("bare 'wal inspect' accepted")
	}
	out.Reset()
	if err := runOneShot(view, &out, "checkpoint "+t.TempDir()); err == nil {
		t.Fatal("checkpoint on an empty directory succeeded")
	}
	out.Reset()
	// An empty durability directory inspects cleanly.
	if err := runOneShot(view, &out, "wal inspect "+t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "empty durability directory") {
		t.Errorf("empty dir not reported:\n%s", out.String())
	}
}

// replInfoServer serves a canned /repl/info document, 404 elsewhere —
// the wire shape the repl status subcommand parses.
func replInfoServer(t *testing.T, doc map[string]any) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/repl/info" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(doc)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestReplStatusSubcommand(t *testing.T) {
	view := testView(t)

	primary := replInfoServer(t, map[string]any{
		"role": "primary", "generation": 12, "oldest": 3,
	})
	var out strings.Builder
	if err := runOneShot(view, &out, "repl status "+primary.URL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "role=primary durable_generation=12 oldest_streamable=3") {
		t.Errorf("primary status missing:\n%s", out.String())
	}

	caught := replInfoServer(t, map[string]any{
		"role": "follower", "primary": "http://p:8080", "generation": 9,
		"primary_generation": 10, "lag": 1, "watermark": 8, "following": true,
	})
	out.Reset()
	if err := runOneShot(view, &out, "repl status "+caught.URL); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"role=follower", "lag=1", "caught up"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("caught-up status missing %q:\n%s", want, out.String())
		}
	}
}

func TestReplStatusLaggingExitCode(t *testing.T) {
	view := testView(t)
	lagging := replInfoServer(t, map[string]any{
		"role": "follower", "primary": "http://p:8080", "generation": 2,
		"primary_generation": 42, "lag": 40, "watermark": 8, "following": false,
	})
	var out strings.Builder
	err := runOneShot(view, &out, "repl status "+lagging.URL)
	var xe *exitCodeError
	if !errors.As(err, &xe) || xe.code != 3 {
		t.Fatalf("lagging follower error = %v, want exit code 3", err)
	}
	if !strings.Contains(out.String(), "lag=40") {
		t.Errorf("lag missing from output:\n%s", out.String())
	}
}

func TestReplStatusUsageAndNonReplNode(t *testing.T) {
	view := testView(t)
	var out strings.Builder
	if err := runOneShot(view, &out, "repl bogus"); err == nil || !strings.Contains(err.Error(), "usage: repl status") {
		t.Fatalf("bad subcommand error = %v, want usage", err)
	}
	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	err := runOneShot(view, &out, "repl status "+plain.URL)
	if err == nil || !strings.Contains(err.Error(), "no replication endpoints") {
		t.Fatalf("non-repl node error = %v, want endpoint explanation", err)
	}
	var xe *exitCodeError
	if errors.As(err, &xe) {
		t.Fatalf("transport-level failure carried exit code %d, want generic 1", xe.code)
	}
}

// fetch is the client half of the overload contract: 429 and 503 are
// retried, a Retry-After header is the floor of the wait (the jitter takes
// at most half off), and any other status is reported at once.
func TestFetchRetriesOverloadAndHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusTooManyRequests)
		case 2:
			http.Error(w, "checkpointing", http.StatusServiceUnavailable)
		default:
			_, _ = io.WriteString(w, "served")
		}
	}))
	defer srv.Close()
	start := time.Now()
	body, err := fetch(srv.URL, "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(body)
	body.Close()
	if n := hits.Load(); string(got) != "served" || n != 3 {
		t.Errorf("fetch = %q after %d requests, want the third answer", got, n)
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Errorf("waited %v across a Retry-After: 1 answer, want at least half of it", waited)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	defer gone.Close()
	if _, err := fetch(gone.URL, "/metrics"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("fetch of a 404 = %v, want the status reported without a retry", err)
	}
}

// TestMetricsScrapeQuantilesAreTheRegistrys serves a registry holding one
// histogram with known observations, some past its last bound, and checks
// that the metrics command prints the count, sum and quantiles the
// registry's own snapshot gives.
func TestMetricsScrapeQuantilesAreTheRegistrys(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("test_latency_seconds", "Known observations.",
		obs.ExpBounds(0.001, 2, 8), obs.Label{Key: "op", Value: "x"})
	for i := 1; i <= 200; i++ {
		h.ObserveValue(float64(i) * 0.0007)
	}
	for i := 0; i < 5; i++ {
		h.ObserveValue(5) // the +Inf bucket
	}
	reg.NewCounter("test_ops_total", "Counted.").Add(7)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := obs.WritePrometheus(w, reg); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	var out strings.Builder
	if err := metricsScrape(&out, srv.URL); err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	got := strings.Join(strings.Fields(out.String()), " ") // the columns are padded
	for _, want := range []string{
		fmt.Sprintf(`test_latency_seconds{op="x"} count=%d sum=%s p50=%s p95=%s p99=%s`,
			s.Count, fmtValue(s.Sum), fmtValue(s.P50()), fmtValue(s.P95()), fmtValue(s.P99())),
		"test_ops_total 7",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, out.String())
		}
	}
}
