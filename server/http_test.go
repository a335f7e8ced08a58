package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rxview"
	"rxview/server"
)

func newTestServer(t *testing.T, timeout time.Duration, opts ...rxview.Option) (*httptest.Server, *server.Engine) {
	t.Helper()
	eng, _ := mustRegistrarEngine(t, opts...)
	ts := httptest.NewServer(server.NewHandler(eng, server.HandlerOptions{Timeout: timeout}))
	t.Cleanup(ts.Close)
	return ts, eng
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestHandlerQueryUpdateStatsHealth(t *testing.T) {
	ts, _ := newTestServer(t, 5*time.Second, rxview.WithForceSideEffects())

	code, out := post(t, ts, "/query", map[string]any{"path": `//course[cno="CS650"]/takenBy/student`})
	if code != http.StatusOK {
		t.Fatalf("/query status = %d: %v", code, out)
	}
	before := int(out["count"].(float64))

	code, out = post(t, ts, "/update", map[string]any{
		"kind": "insert", "type": "student",
		"path":   `//course[cno="CS650"]/takenBy`,
		"values": []any{"SH1", "HTTP"},
	})
	if code != http.StatusOK {
		t.Fatalf("/update status = %d: %v", code, out)
	}
	rep := out["report"].(map[string]any)
	if rep["applied"] != true {
		t.Fatalf("/update not applied: %v", rep)
	}

	code, out = post(t, ts, "/query", map[string]any{"path": `//course[cno="CS650"]/takenBy/student`})
	if code != http.StatusOK || int(out["count"].(float64)) != before+1 {
		t.Fatalf("/query after update: status=%d count=%v want %d", code, out["count"], before+1)
	}

	code, out = get(t, ts, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	if out["updates_applied"].(float64) != 1 || out["queries"].(float64) < 2 {
		t.Errorf("/stats counters off: %v", out)
	}

	code, out = get(t, ts, "/healthz")
	if code != http.StatusOK || out["ok"] != true {
		t.Errorf("/healthz = %d %v", code, out)
	}
	if out["generation"].(float64) != 1 {
		t.Errorf("/healthz generation = %v, want 1", out["generation"])
	}
}

func TestHandlerBatchPrefixAndErrors(t *testing.T) {
	ts, _ := newTestServer(t, 5*time.Second) // side effects rejected

	mkIns := func(key string) map[string]any {
		return map[string]any{
			"kind": "insert", "type": "student",
			"path":   `//course[cno="CS650"]/takenBy`,
			"values": []any{key, "B"},
		}
	}
	sharedIns := map[string]any{
		"kind": "insert", "type": "course",
		"path":   `course[cno="CS650"]//course[cno="CS320"]/prereq`,
		"values": []any{"CS777", "Sharing"},
	}

	code, out := post(t, ts, "/batch", map[string]any{
		"updates": []any{mkIns("SH10"), sharedIns, mkIns("SH11")},
	})
	if code != http.StatusConflict {
		t.Fatalf("/batch with mid-batch side effect: status = %d, want 409: %v", code, out)
	}
	reps := out["reports"].([]any)
	if len(reps) != 2 {
		t.Fatalf("/batch reports = %d, want applied prefix + failing update", len(reps))
	}
	if reps[0].(map[string]any)["applied"] != true || reps[1].(map[string]any)["applied"] != false {
		t.Errorf("/batch prefix semantics violated: %v", reps)
	}

	// Error taxonomy over the wire.
	cases := []struct {
		path string
		body any
		want int
	}{
		{"/query", map[string]any{"path": `//course[`}, http.StatusBadRequest},
		{"/query", map[string]any{"bogus": 1}, http.StatusBadRequest},
		{"/update", sharedIns, http.StatusConflict},
		{"/update", map[string]any{"kind": "noop", "path": "x"}, http.StatusBadRequest},
		{"/update", map[string]any{"kind": "insert", "type": "student",
			"path": `//course/takenBy`, "values": []any{1.5}}, http.StatusBadRequest},
		{"/update", map[string]any{"kind": "insert", "type": "course",
			"path": `.`, "values": []any{"EE100", "Circuits"}}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if code, out := post(t, ts, c.path, c.body); code != c.want {
			t.Errorf("POST %s %v: status = %d, want %d (%v)", c.path, c.body, code, c.want, out)
		}
	}

	if resp, err := http.Get(ts.URL + "/query"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
		}
	}

	// An oversized body is a size-limit rejection (413), not bad JSON (400):
	// the payload is valid JSON that only reveals its size past the limit.
	huge := append(append([]byte(`{"path":"`), bytes.Repeat([]byte("x"), 2<<20)...), `"}`...)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestHandlerBodyIsOneJSONValue: a request body is one JSON value. On every
// route that reads one, a second value after it — the second group of a
// /tx, say — or anything else but whitespace is a 400 that applies nothing;
// trailing whitespace is fine.
func TestHandlerBodyIsOneJSONValue(t *testing.T) {
	ins := func(key string) string {
		return `{"kind":"insert","type":"student","path":"//course[cno=\"CS650\"]/takenBy","values":["` + key + `","B"]}`
	}
	for _, c := range []struct {
		path, first, second string
	}{
		{"/query", `{"path":"//student"}`, `{"path":"//course"}`},
		{"/update", ins("T1"), ins("T2")},
		{"/batch", `{"updates":[` + ins("T3") + `]}`, `{"updates":[` + ins("T4") + `]}`},
		{"/tx", `{"updates":[` + ins("T5") + `]}`, `{"updates":[` + ins("T6") + `]}`},
	} {
		for _, tail := range []struct {
			name, text string
			want       int
		}{
			{"a second value", " " + c.second, http.StatusBadRequest},
			{"a second value, no space", c.second, http.StatusBadRequest},
			{"garbage", "x", http.StatusBadRequest},
			{"a closing brace", "}", http.StatusBadRequest},
			{"whitespace", " \n\t ", http.StatusOK},
		} {
			ts, eng := newTestServer(t, 5*time.Second)
			before := eng.Generation()
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.first+tail.text))
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("POST %s, then %s: decoding response: %v", c.path, tail.name, err)
			}
			if resp.StatusCode != tail.want {
				t.Errorf("POST %s, then %s: status %d, want %d (%v)", c.path, tail.name, resp.StatusCode, tail.want, out)
			}
			if tail.want != http.StatusOK && eng.Generation() != before {
				t.Errorf("POST %s, then %s: refused, yet the generation moved from %d to %d", c.path, tail.name, before, eng.Generation())
			}
		}
	}
}

// Update values go through rxview.Value's decoder, the library's one: an
// integer past 2⁵³ reaches the pipeline exactly, on every write endpoint
// (here the student's string-typed ssn refuses it, and the report renders
// the value it was given), while a fraction or an exponent form is a
// malformed request.
func TestHandlerValuesDecodeAsExactInt64(t *testing.T) {
	ts, _ := newTestServer(t, 5*time.Second)
	ins := func(value string) json.RawMessage {
		return json.RawMessage(`{"kind":"insert","type":"student","path":"//course[cno=\"CS650\"]/takenBy","values":[` + value + `,"Big"]}`)
	}
	group := func(value string) json.RawMessage {
		return json.RawMessage(`{"updates":[` + string(ins(value)) + `]}`)
	}
	for _, c := range []struct {
		path string
		body func(string) json.RawMessage
	}{{"/update", ins}, {"/batch", group}, {"/tx", group}} {
		code, out := post(t, ts, c.path, c.body("9007199254740993"))
		reps, _ := out["reports"].([]any)
		if len(reps) != 1 {
			t.Fatalf("POST %s 2⁵³+1: status %d, no report from the pipeline: %v", c.path, code, out)
		}
		if op, _ := reps[0].(map[string]any)["op"].(string); !strings.Contains(op, "9007199254740993") {
			t.Errorf("POST %s 2⁵³+1: the pipeline saw %q", c.path, op)
		}
		for _, v := range []string{"1.5", "1e3"} {
			if code, out := post(t, ts, c.path, c.body(v)); code != http.StatusBadRequest {
				t.Errorf("POST %s value %s: status = %d, want 400 (%v)", c.path, v, code, out)
			}
		}
	}
}

func TestHandlerPerRequestTimeout(t *testing.T) {
	ts, _ := newTestServer(t, time.Nanosecond, rxview.WithForceSideEffects())
	code, out := post(t, ts, "/update", map[string]any{
		"kind": "insert", "type": "student",
		"path":   `//course[cno="CS650"]/takenBy`,
		"values": []any{"ST1", "Timeout"},
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("/update under 1ns budget: status = %d, want 504: %v", code, out)
	}
	// The timed-out update must not have been applied.
	code, out = post(t, ts, "/query", map[string]any{"path": `//student[ssn="ST1"]`})
	if code != http.StatusGatewayTimeout && code != http.StatusOK {
		t.Fatalf("/query status = %d: %v", code, out)
	}
	if code == http.StatusOK && out["count"].(float64) != 0 {
		t.Error("timed-out update was applied")
	}
}

// FuzzHandlerBodies posts arbitrary bytes to the four routes that decode a
// body, on an in-memory registrar engine (side effects forced when the
// route byte's high bit is set). Oracle: no panic and never a 5xx — a body
// the handler cannot use is refused as the client's (400, or 413 past the
// size limit) and a usable one gets its verdict (200, 409, 422); a 200's
// body is exactly one JSON value, and its generation is one the engine has
// published; a /query body posted twice
// gets the same status and bytes both times (the second a memo hit when the
// first evaluated); and after Close the view is still σ of its base
// relations.
func FuzzHandlerBodies(f *testing.F) {
	routes := []string{"/query", "/update", "/batch", "/tx"}
	ins := `{"kind":"insert","type":"student","path":"//course[cno=\"CS650\"]/takenBy","values":["SH1","HTTP"]}`
	shared := `{"kind":"insert","type":"course","path":"course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq","values":["CS777","Sharing"]}`
	for _, s := range []struct {
		route uint8
		body  string
	}{
		{0, `{"path":"//course[cno=\"CS650\"]/takenBy/student"}`},
		{0, `{"path":"//course["}`},
		{0, `{"bogus":1}`},
		{1, ins},
		{1, shared},
		{0x81, shared},
		{1, `{"kind":"noop","path":"x"}`},
		{1, `{"kind":"insert","type":"student","path":"//course/takenBy","values":[1.5]}`},
		{1, `{"kind":"insert","type":"course","path":".","values":["EE100","Circuits"]}`},
		{1, `{"kind":"delete","path":"//student[ssn=\"S01\"]"}`},
		{2, `{"updates":[` + ins + `,` + shared + `]}`},
		{3, `{"updates":[{"kind":"insert","path":".","type":"course","values":["CS111","Intro"]},` +
			`{"kind":"insert","path":"//course[cno=\"CS111\"]/prereq","type":"course","values":["CS112","II"]}]}`},
		{3, `{"updates":[{"kind":"insert","path":".","type":"course","values":["CS311","Gone"]},` + shared + `]}`},
		{3, `{"updates":[{"kind":"frobnicate","path":"."}]}`},
		{3, `{"updates":[` + ins + `]} {"updates":[` + shared + `]}`},
		{1, ins + "\n"},
	} {
		f.Add(s.route, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		atg, db, err := rxview.NewRegistrar()
		if err != nil {
			t.Fatal(err)
		}
		var opts []rxview.Option
		if route&0x80 != 0 {
			opts = append(opts, rxview.WithForceSideEffects())
		}
		view, err := rxview.Open(atg, db, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng := server.New(view)
		h := server.NewHandler(eng, server.HandlerOptions{})
		path := routes[int(route&0x7f)%len(routes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if path == "/query" {
			// Again, at the same epoch: a memo hit now if the first one
			// evaluated, and either way the same answer.
			again := httptest.NewRecorder()
			h.ServeHTTP(again, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("POST /query %q twice: %d %q, then %d %q", body, rec.Code, rec.Body, again.Code, again.Body)
			}
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			if !json.Valid(body) {
				t.Fatalf("POST %s %q: 200 for a body that is not exactly one JSON value", path, body)
			}
			var out struct {
				Generation uint64 `json:"generation"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("POST %s %q: 200 with an undecodable body: %v", path, body, err)
			}
			if out.Generation > eng.Generation() {
				t.Fatalf("POST %s %q: answered at generation %d, the engine published %d", path, body, out.Generation, eng.Generation())
			}
		}
		eng.Close()
		if err := view.CheckConsistency(); err != nil {
			t.Fatalf("POST %s %q: %v", path, body, err)
		}
	})
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, rxview.WithForceSideEffects())
	if err != nil {
		t.Fatal(err)
	}
	eng := server.New(view)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	h := server.NewHandler(eng, server.HandlerOptions{Timeout: 5 * time.Second})
	go func() { done <- server.Serve(ctx, addr, h, eng.Close) }()

	// Wait for the daemon to come up, then exercise one round-trip.
	var up bool
	for i := 0; i < 100; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !up {
		cancel()
		t.Fatal("daemon did not come up")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	// The engine was closed by the shutdown path.
	if _, err := eng.Update(context.Background(), rxview.Delete(`//student[ssn="none"]`)); err == nil {
		t.Error("engine still accepts writes after shutdown")
	}
}

// discardWriter is an http.ResponseWriter that keeps the status, drops the
// body and reuses one header map, so what is counted around it is the
// handler's own work.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// queryHit returns a function that serves one POST /query of a warm path
// through NewHandler and reports its status: every call after the first is
// a memo hit.
func queryHit(tb testing.TB) func() int {
	eng, _ := mustRegistrarEngine(tb)
	h := server.NewHandler(eng, server.HandlerOptions{Timeout: 5 * time.Second})
	body := []byte(`{"path":"//course[cno=\"CS650\"]/takenBy/student"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	w := &discardWriter{header: http.Header{}}
	serve := func() int {
		rd.Reset(body)
		w.status = 0
		h.ServeHTTP(w, req)
		return w.status
	}
	if code := serve(); code != http.StatusOK {
		tb.Fatalf("warming /query: status %d", code)
	}
	return serve
}

// BenchmarkHandlerQueryHit prices a memo hit through the HTTP handler:
// decode the request, look the path up, write the stored body.
func BenchmarkHandlerQueryHit(b *testing.B) {
	serve := queryHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// TestHandlerQueryHitAllocs bounds the allocations of one /query memo hit at
// the count measured once answers became stored bodies: the request's
// decoding (the body limit, the decoder with its buffer and scan state, the
// request value and its path string) and the Content-Type header's value
// slice. A hit that encoded its answer as JSON again, or built the Timeout
// context, allocates sixteen.
func TestHandlerQueryHitAllocs(t *testing.T) {
	const max = 11
	serve := queryHit(t)
	got := testing.AllocsPerRun(100, func() { serve() })
	if got > max {
		t.Fatalf("a /query memo hit allocates %.0f objects, want at most %d", got, max)
	}
}
