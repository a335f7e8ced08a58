package server

// Readiness gating. A serving process has two distinct health questions:
//
//	liveness  — "is the process up?"           GET /livez,   always 200
//	readiness — "should traffic route here?"   GET /healthz, 503 until ready
//
// The Gate is the front door that keeps them distinct: it answers HTTP
// immediately — before the view has finished boot replay — with 503s that
// carry the recovery state, and atomically swaps in the full API handler
// once SetReady is called. Load balancers polling /healthz therefore never
// route to a node that is still replaying its log, while /livez keeps the
// process from being killed during a long recovery.

import (
	"net/http"
	"sync/atomic"
)

// readiness is the one readiness verdict: Gate.State, the handler's
// /healthz and the Registry's /views and /healthz all come here, so they
// agree at every instant. h is nil until a gate opens, and phase names the
// boot step meanwhile. The order of the cases is the package
// documentation's readiness table: "degraded" outranks "checkpointing"
// because the recovery probe itself checkpoints, and "degraded" is the
// state that explains why; it outranks "following" because it is the
// condition a balancer must route writes around, where "following" only
// says how far behind the reads are.
func readiness(h *handler, phase string) (state string, status int) {
	switch {
	case h == nil:
		return phase, http.StatusServiceUnavailable
	case h.e.Degraded():
		return "degraded", http.StatusServiceUnavailable
	case h.opts.Checkpointing != nil && h.opts.Checkpointing():
		return "checkpointing", http.StatusServiceUnavailable
	case h.opts.Follow != nil && !h.opts.Follow().Following:
		return "following", http.StatusServiceUnavailable
	}
	return "ready", http.StatusOK
}

// Gate serves readiness 503s until an Engine is attached, then delegates
// every request to the engine's full handler. Safe for concurrent use; the
// ready swap is atomic and one-way.
type Gate struct {
	phase atomic.Pointer[string]
	ready atomic.Pointer[handler]
}

// NewGate returns a gate in the not-ready state; state names the startup
// phase reported by /healthz (e.g. "loading", "recovering").
func NewGate(state string) *Gate {
	g := &Gate{}
	g.SetState(state)
	return g
}

// SetState updates the startup phase reported while not ready.
func (g *Gate) SetState(state string) { g.phase.Store(&state) }

// State returns the gate's readiness state: the startup phase until
// SetReady, then the attached handler's verdict — "ready", "degraded",
// "checkpointing" or "following" (the package documentation's readiness
// table). It is what /healthz reports through the gate.
func (g *Gate) State() string {
	state, _ := g.readiness()
	return state
}

func (g *Gate) readiness() (string, int) { return readiness(g.ready.Load(), *g.phase.Load()) }

// SetReady attaches the engine and opens the gate: from here on every
// request is served by NewHandler(e, opts).
func (g *Gate) SetReady(e *Engine, opts HandlerOptions) { g.ready.Store(newHandler(e, opts)) }

// engine returns the attached engine, or nil before SetReady.
func (g *Gate) engine() *Engine {
	if h := g.ready.Load(); h != nil {
		return h.e
	}
	return nil
}

// ServeHTTP delegates to the full handler once ready. Before that only
// liveness answers 200; everything else — /healthz included — gets a 503
// with the recovery state, so a balancer keeps the node out of rotation
// without mistaking it for dead.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := g.ready.Load(); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == "/livez" {
		writeJSON(w, http.StatusOK, livenessResponse{OK: true})
		return
	}
	state, status := readiness(nil, *g.phase.Load())
	writeJSON(w, status, healthResponse{State: state})
}
