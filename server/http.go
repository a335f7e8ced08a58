package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"rxview"
	"rxview/internal/obs"
)

// HandlerOptions configures the HTTP/JSON surface.
type HandlerOptions struct {
	// Timeout bounds each evaluation and each write: a memo-missing
	// /query's evaluation, and a write's queue wait and pipeline. Zero means
	// no per-request timeout. A /query the epoch's memo answers does no
	// evaluation, so it runs under the request's own context, unbounded.
	// Like View.Query, a query's XPath evaluation itself is not preemptible —
	// the deadline is observed at entry and, for writes, between the
	// pipeline's phases.
	Timeout time.Duration
	// Checkpointing, when non-nil, reports whether a checkpoint is
	// stalling the writer right now (View.Checkpointing of a durable view:
	// the state is being encoded, its file written and the log rotated).
	// While true, /healthz answers 503 so load balancers drain the node for
	// the stall; /livez is unaffected.
	Checkpointing func() bool
	// Repl, when non-nil, serves the primary-side replication endpoints:
	// GET /repl/checkpoint (the newest sealed checkpoint, octet-stream,
	// generation in X-Xview-Generation), GET /repl/stream?from=G (framed
	// commit records of generations > G, chunked; 410 when G predates the
	// retained log) and GET /repl/info.
	Repl *rxview.ReplSource
	// Follow, when non-nil, marks a follower node (server.Replica.Status):
	// /healthz reports "following" (503) until the lag is inside the follow
	// watermark, and GET /repl/info reports the follower's position.
	Follow func() FollowStatus
	// PrivateMetricsOnly restricts /metrics and /debug/vars to the engine's
	// own registry, excluding the process-wide obs.Default families. The
	// multi-tenant Registry sets it so one view's scrape never shows another
	// view's traffic; the process-wide families stay available at the
	// registry's top-level /metrics.
	PrivateMetricsOnly bool
}

// maxBody bounds request bodies: 1 MiB. A larger one is refused with 413 —
// split the batch.
const maxBody = 1 << 20

// streamWindow bounds how long one caught-up /repl/stream poll is held open
// waiting for new commits before the follower reconnects. A variable only
// so the package's tests can shorten it (export_test.go).
var streamWindow = 25 * time.Second

// NewHandler exposes an Engine over HTTP/JSON:
//
//	POST /query   {"path": "//course"}                 → nodes + generation
//	POST /update  {"kind":"insert","type":"student",
//	               "values":["S1","Ann"],
//	               "path":"//course/takenBy"}          → report
//	POST /batch   {"updates":[...]}                    → reports (prefix
//	                                                      semantics)
//	POST /tx      {"updates":[...]}                    → reports (atomic:
//	                                                      all-or-nothing,
//	                                                      one generation;
//	                                                      409 on rejection)
//	GET  /stats                                        → serving statistics
//	GET  /healthz                                      → readiness (503 unless
//	                                                      ready; see Readiness)
//	GET  /livez                                        → liveness, always 200
//	GET  /metrics                                      → Prometheus text
//	                                                      exposition
//	GET  /debug/vars                                   → metrics as JSON
//	GET  /debug/slow                                   → slow-query/commit log
//
// The handler is the single dispatch path shared by the xviewd daemon and
// xviewctl -serve. Reads are served from the published snapshot and never
// wait on writes; writes go through the apply loop. /metrics scrapes the
// engine's private registry merged with the process-wide obs.Default
// registry (pipeline, WAL and path-cache families).
func NewHandler(e *Engine, opts HandlerOptions) http.Handler { return newHandler(e, opts) }

func newHandler(e *Engine, opts HandlerOptions) *handler {
	mux := http.NewServeMux()
	h := &handler{e: e, opts: opts, mux: mux}
	mux.HandleFunc("POST /query", h.query)
	mux.HandleFunc("POST /update", h.update)
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) { h.group(w, r, false) })
	mux.HandleFunc("POST /tx", func(w http.ResponseWriter, r *http.Request) { h.group(w, r, true) })
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /livez", h.livez)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /debug/vars", h.debugVars)
	mux.HandleFunc("GET /debug/slow", h.debugSlow)
	if opts.Repl != nil {
		mux.HandleFunc("GET /repl/checkpoint", h.replCheckpoint)
		mux.HandleFunc("GET /repl/stream", h.replStream)
	}
	if opts.Repl != nil || opts.Follow != nil {
		mux.HandleFunc("GET /repl/info", h.replInfo)
	}
	return h
}

type handler struct {
	e    *Engine
	opts HandlerOptions
	mux  *http.ServeMux
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// requestCtx applies the per-request timeout.
func (h *handler) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.opts.Timeout > 0 {
		return context.WithTimeout(r.Context(), h.opts.Timeout)
	}
	return r.Context(), func() {}
}

// decode reads the request body, which must be exactly one JSON value:
// anything after it but whitespace is refused, not ignored.
func (h *handler) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("a second JSON value follows the first")
		} else if !errors.Is(terr, io.EOF) {
			err = terr
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge // split the batch, don't fix the JSON
		}
		writeError(w, status, fmt.Errorf("decoding request: %w", err), nil)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error   string        `json:"error"`
	Reports []*reportJSON `json:"reports,omitempty"`
	// RetryAfterMS accompanies 429 responses: the estimated queue drain
	// time in milliseconds — the Retry-After header at sub-second grain.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Primary accompanies 421 responses from a read-only follower: the
	// advertised primary address to re-aim the write at (also in the
	// X-Xview-Primary header).
	Primary string `json:"primary,omitempty"`
}

// statusOf maps the public error taxonomy onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, rxview.ErrParse):
		return http.StatusBadRequest
	case errors.Is(err, rxview.ErrSideEffect):
		return http.StatusConflict
	case errors.Is(err, rxview.ErrNotUpdatable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrReadOnlyReplica):
		// The write reached a follower: 421 tells the client this node will
		// never serve it; the response advertises the primary to re-aim at.
		return http.StatusMisdirectedRequest
	case errors.Is(err, rxview.ErrDegraded):
		// Writes are refused while degraded; reads keep serving. 503 tells
		// the balancer to route writes elsewhere, and the recovery prober
		// flips the node back automatically.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, status int, err error, reps []*rxview.Report) {
	out := errorResponse{Error: err.Error(), Reports: reportsJSON(reps)}
	var oe *OverloadedError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		// Retry-After is whole seconds by spec; round up so a client that
		// honors only the header never retries early. The JSON carries the
		// sub-second estimate.
		secs := int64((oe.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		out.RetryAfterMS = oe.RetryAfter.Milliseconds()
		if out.RetryAfterMS == 0 {
			out.RetryAfterMS = 1
		}
	}
	var ro *ReadOnlyReplicaError
	if errors.As(err, &ro) && ro.Primary != "" {
		w.Header().Set("X-Xview-Primary", ro.Primary)
		out.Primary = ro.Primary
	}
	writeJSON(w, status, out)
}

type queryRequest struct {
	Path string `json:"path"`
}

type queryResponse struct {
	Generation uint64        `json:"generation"`
	Count      int           `json:"count"`
	Nodes      []rxview.Node `json:"nodes"`
}

// encodeQuery is the /query response body for nodes at gen: the bytes
// writeJSON writes for the queryResponse, held at exact size.
func encodeQuery(gen uint64, nodes []rxview.Node) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(queryResponse{Generation: gen, Count: len(nodes), Nodes: nodes})
	return bytes.Clone(buf.Bytes())
}

// query serves POST /query. A memo hit is answered under the request's own
// context with the body its miss encoded; only a miss builds the Timeout
// context and evaluates.
//
// xviewlint:hot-path
func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	var in queryRequest
	if !h.decode(w, r, &in) {
		return
	}
	ep := h.e.ep.Load()
	a, hit := h.e.memoized(ep, in.Path)
	var err error
	if hit {
		err = r.Context().Err()
	} else {
		ctx, cancel := h.requestCtx(r)
		a, err = h.e.evaluate(ctx, ep, in.Path)
		cancel()
	}
	if err != nil {
		writeError(w, statusOf(err), err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.body)
}

// updateJSON is the wire form of one update. Values are the element type's
// attribute fields in ATG declaration order, decoded by rxview.Value:
// JSON strings, integers in the full int64 range, booleans and null map
// onto the view's value kinds.
type updateJSON struct {
	Kind   string         `json:"kind"` // "insert" | "delete"
	Path   string         `json:"path"`
	Type   string         `json:"type,omitempty"`
	Values []rxview.Value `json:"values,omitempty"`
}

func (u updateJSON) compile() (rxview.Update, error) {
	switch u.Kind {
	case "delete":
		return rxview.Delete(u.Path), nil
	case "insert":
		return rxview.Insert(u.Path, u.Type, u.Values...), nil
	default:
		return rxview.Update{}, fmt.Errorf("unknown update kind %q (want insert or delete)", u.Kind)
	}
}

type reportJSON struct {
	Op          string   `json:"op"`
	Applied     bool     `json:"applied"`
	Targets     int      `json:"targets"`
	Edges       int      `json:"edges"`
	SideEffects bool     `json:"side_effects"`
	DVInserts   int      `json:"dv_inserts"`
	DVDeletes   int      `json:"dv_deletes"`
	Removed     int      `json:"removed"`
	Changes     []string `json:"changes,omitempty"`
	TotalNS     int64    `json:"total_ns"`
}

func reportOf(rep *rxview.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	out := &reportJSON{
		Op:          rep.Op,
		Applied:     rep.Applied,
		Targets:     rep.Targets,
		Edges:       rep.Edges,
		SideEffects: rep.SideEffects,
		DVInserts:   rep.DVInserts,
		DVDeletes:   rep.DVDeletes,
		Removed:     rep.Removed,
		TotalNS:     rep.Timings.Total().Nanoseconds(),
	}
	for _, m := range rep.Changes {
		out.Changes = append(out.Changes, m.String())
	}
	return out
}

func reportsJSON(reps []*rxview.Report) []*reportJSON {
	if reps == nil {
		return nil
	}
	out := make([]*reportJSON, len(reps))
	for i, rep := range reps {
		out[i] = reportOf(rep)
	}
	return out
}

type updateResponse struct {
	Generation uint64      `json:"generation"`
	Report     *reportJSON `json:"report"`
}

func (h *handler) update(w http.ResponseWriter, r *http.Request) {
	var in updateJSON
	if !h.decode(w, r, &in) {
		return
	}
	u, err := in.compile()
	if err != nil {
		writeError(w, http.StatusBadRequest, err, nil)
		return
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	res := h.e.do(ctx, &request{u: u})
	if res.err != nil {
		var reps []*rxview.Report
		if res.rep != nil {
			reps = []*rxview.Report{res.rep}
		}
		writeError(w, statusOf(res.err), res.err, reps)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{Generation: res.gen, Report: reportOf(res.rep)})
}

type batchRequest struct {
	Updates []updateJSON `json:"updates"`
}

type batchResponse struct {
	Generation uint64        `json:"generation"`
	Reports    []*reportJSON `json:"reports"`
}

// txStatusOf maps an atomic group's rejection onto HTTP statuses: any
// update-level rejection that makes the combined effect unachievable — an
// XML side effect or an untranslatable ΔV — is a group conflict (409, where
// /update distinguishes 409 from 422: the group-level question is "can
// these apply together atomically", and the answer was no). Malformed
// updates stay 400, timeouts and shutdown keep their transport statuses.
func txStatusOf(err error) int {
	if errors.Is(err, rxview.ErrSideEffect) || errors.Is(err, rxview.ErrNotUpdatable) {
		return http.StatusConflict
	}
	return statusOf(err)
}

// group serves /batch and /tx, which share a request and a response shape.
// A batch has prefix semantics: on failure the reports cover what ran, so
// the client knows exactly how far it got. An atomic group is all updates or
// none, one generation step, one published epoch: on rejection the reports
// still describe every staged update (ending with the rejected one), but
// nothing was applied.
func (h *handler) group(w http.ResponseWriter, r *http.Request, atomic bool) {
	var in batchRequest
	if !h.decode(w, r, &in) {
		return
	}
	updates := make([]rxview.Update, len(in.Updates))
	for i, uj := range in.Updates {
		u, err := uj.compile()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("updates[%d]: %w", i, err), nil)
			return
		}
		updates[i] = u
	}
	ctx, cancel := h.requestCtx(r)
	defer cancel()
	res := h.e.do(ctx, groupRequest(updates, atomic))
	if res.err != nil {
		status := statusOf(res.err)
		if atomic {
			status = txStatusOf(res.err)
		}
		writeError(w, status, res.err, res.reps)
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{Generation: res.gen, Reports: reportsJSON(res.reps)})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.e.Stats())
}

// healthResponse is the readiness verdict: OK false (with a 503) means the
// node should be drained — State says why ("recovering" during boot replay,
// "checkpointing" while the writer is stalled sealing state).
type healthResponse struct {
	OK         bool   `json:"ok"`
	State      string `json:"state"`
	Generation uint64 `json:"generation,omitempty"`
	// Digest is the state digest at Generation, on durable primaries and
	// followers: two nodes reporting the same pair serve the same state.
	Digest     string `json:"digest,omitempty"`
	QueueDepth int64  `json:"queue_depth,omitempty"`
	// Lag is reported on followers: generations behind the primary's
	// durable watermark at probe time.
	Lag uint64 `json:"lag,omitempty"`
}

type livenessResponse struct {
	OK bool `json:"ok"`
}

// healthz is the readiness probe: the verdict of readiness, with the
// epoch's generation and digest (and a follower's lag) beside it. Liveness
// is /livez; the two are distinct so a balancer can pull a node out of
// rotation without the orchestrator killing the process.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	sn := h.e.Snapshot() // one epoch: the generation and the digest belong together
	state, status := readiness(h, "")
	out := healthResponse{
		OK:         status == http.StatusOK,
		State:      state,
		Generation: sn.Generation(),
		QueueDepth: h.e.met.depth.Value(),
	}
	if d, ok := sn.Digest(); ok {
		out.Digest = d.String()
	}
	if h.opts.Follow != nil {
		out.Lag = h.opts.Follow().Lag
	}
	writeJSON(w, status, out)
}

// livez is the liveness probe: the process is up and serving HTTP.
func (h *handler) livez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, livenessResponse{OK: true})
}

// metrics serves the Prometheus text exposition of every registry in the
// process: the engine's own families plus the obs.Default families
// (pipeline phases, transactions, WAL, path cache). Locked snapshot side —
// never called from the hot path.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, h.registries()...)
}

// debugVars is the same gather as /metrics rendered as one JSON object —
// for humans with curl and jq, not for scrapers.
func (h *handler) debugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteVars(w, h.registries()...)
}

// registries picks the scrape set: the engine's private registry, plus the
// process-wide families unless this handler is metric-isolated (one view of
// a multi-tenant Registry).
func (h *handler) registries() []*obs.Registry {
	if h.opts.PrivateMetricsOnly {
		return []*obs.Registry{h.e.Metrics()}
	}
	return []*obs.Registry{h.e.Metrics(), obs.Default()}
}

type slowResponse struct {
	ThresholdNS int64           `json:"threshold_ns"`
	Dropped     uint64          `json:"dropped"`
	Entries     []obs.SlowEntry `json:"entries"`
}

// debugSlow dumps the slow-query/slow-commit ring buffer, newest first.
// Empty until a threshold is configured (xviewd -slow-threshold or
// Engine.SetSlowThreshold).
func (h *handler) debugSlow(w http.ResponseWriter, r *http.Request) {
	entries, dropped := h.e.SlowLog().Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, slowResponse{
		ThresholdNS: h.e.SlowLog().Threshold().Nanoseconds(),
		Dropped:     dropped,
		Entries:     entries,
	})
}

// replCheckpoint serves the newest sealed checkpoint verbatim — the bytes a
// follower feeds to rxview.Replica.Restore. The generation the checkpoint
// seals rides in X-Xview-Generation and the primary's durable watermark in
// X-Xview-Durable, so one fetch tells the follower both where it will start
// and how far behind that start already is.
func (h *handler) replCheckpoint(w http.ResponseWriter, r *http.Request) {
	gen, state, err := h.opts.Repl.CheckpointBytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Xview-Generation", strconv.FormatUint(gen, 10))
	w.Header().Set("X-Xview-Durable", strconv.FormatUint(h.opts.Repl.Generation(), 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(state)))
	_, _ = w.Write(state)
}

// replStream long-polls the change log: every commit record with generation
// > from is written as one CRC-framed chunk and flushed immediately, so a
// caught-up follower sees new commits at commit latency. A poll that stays
// idle for the stream window ends with a clean empty 200 — the follower
// reads EOF and reconnects, which bounds how long a dead peer can pin the
// connection. A from that predates the retained log answers 410 Gone: the
// follower must re-fetch /repl/checkpoint.
func (h *handler) replStream(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parsing from=%q: %w", s, err), nil)
			return
		}
		from = v
	}
	w.Header().Set("X-Xview-Durable", strconv.FormatUint(h.opts.Repl.Generation(), 10))
	flusher, _ := w.(http.Flusher)
	wrote := false
	err := h.opts.Repl.Stream(r.Context(), from, streamWindow, func(_ uint64, frame []byte) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	switch {
	case err == nil:
		// Either frames were streamed or the window elapsed idle; both end
		// the response cleanly and the follower polls again.
	case wrote:
		// Mid-stream failure (peer gone, emit error): the frames already on
		// the wire are CRC-framed and self-delimiting, so just drop the
		// connection — the follower resumes from its last applied generation.
	case errors.Is(err, rxview.ErrReplicaStale):
		writeError(w, http.StatusGone, err, nil)
	default:
		writeError(w, statusOf(err), err, nil)
	}
}

// replInfo reports this node's replication position — the endpoint behind
// `xviewctl repl status`. Primaries answer role "primary" with the durable
// watermark and the oldest streamable generation; followers answer role
// "follower" with the full FollowStatus.
func (h *handler) replInfo(w http.ResponseWriter, r *http.Request) {
	if h.opts.Follow != nil {
		writeJSON(w, http.StatusOK, struct {
			Role string `json:"role"`
			FollowStatus
		}{Role: "follower", FollowStatus: h.opts.Follow()})
		return
	}
	oldest, err := h.opts.Repl.Oldest()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Role       string `json:"role"`
		Generation uint64 `json:"generation"`
		Oldest     uint64 `json:"oldest"`
	}{Role: "primary", Generation: h.opts.Repl.Generation(), Oldest: oldest})
}

// Serve runs h — a handler from NewHandler, a Gate, a Registry — on addr
// until ctx is canceled, then shuts down gracefully (in-flight requests
// drain) and calls shutdown (nil ok) to release what h serves: one engine
// or a fleet of them, the caller decides. It is the one lifecycle of
// cmd/xviewd and xviewctl -serve. A process that must answer health probes
// while its view still loads serves a Gate and opens it with SetReady once
// the view is up.
func Serve(ctx context.Context, addr string, h http.Handler, shutdown func()) error {
	// Long-poll handlers (/repl/stream) hold their connections active for
	// the whole poll window, which would make every graceful Shutdown of a
	// primary with connected followers wait out the full drain timeout.
	// Deriving request contexts from a root canceled by RegisterOnShutdown
	// ends those polls the moment draining starts — a canceled poll is a
	// normal stream end, and the follower resumes against the next primary
	// address it is given. Point requests see the same cancellation but
	// only at their blocking points; a write canceled in-queue reports
	// context.Canceled without being applied, per the engine's contract.
	//lint:ignore xviewlint/ctxflow the connection root must outlive the serve ctx: requests drain after it is canceled
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return connCtx },
	}
	srv.RegisterOnShutdown(connCancel)
	if shutdown == nil {
		shutdown = func() {}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		shutdown()
		return err
	case <-ctx.Done():
	}
	//lint:ignore xviewlint/ctxflow graceful shutdown starts when the serve ctx is already canceled; its deadline must be independent of it
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	shutdown()
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
