package server

// Multi-tenant hosting. A Registry mounts many named views in one process,
// each behind its own Gate — one writer loop, one data directory, and one
// private metric registry per view — and routes /v/{name}/... to the right
// one. Isolation is the point: a view's /metrics scrape shows only its own
// engine families (HandlerOptions.PrivateMetricsOnly), its generation
// counter is its own, and an overloaded or degraded tenant answers its own
// 503s without touching its neighbours. The registry's top-level endpoints
// answer for the process as a whole: /views lists every tenant with its
// state, /healthz aggregates readiness (ready only when every view is),
// /livez is plain process liveness, and /metrics serves the process-wide
// obs.Default families shared by all tenants.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"rxview/internal/obs"
)

// Registry routes HTTP traffic to named views. Safe for concurrent use;
// Add may be called while serving.
type Registry struct {
	mu    sync.Mutex
	views map[string]*Gate

	mux *http.ServeMux
}

// NewRegistry returns an empty registry ready to serve; views are attached
// with Add.
func NewRegistry() *Registry {
	reg := &Registry{views: make(map[string]*Gate), mux: http.NewServeMux()}
	reg.mux.HandleFunc("GET /views", reg.viewsIndex)
	reg.mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, livenessResponse{OK: true})
	})
	reg.mux.HandleFunc("GET /healthz", reg.healthz)
	reg.mux.HandleFunc("GET /metrics", reg.metrics)
	reg.mux.HandleFunc("/v/{name}/{rest...}", reg.route)
	return reg
}

// Add mounts a view's gate under /v/{name}/. The name becomes a path
// segment, so it must be non-empty and slash-free; duplicate names are an
// error (a tenant cannot be silently replaced while serving).
func (reg *Registry) Add(name string, g *Gate) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("server: view name %q must be non-empty with no slash or space", name)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.views[name]; dup {
		return fmt.Errorf("server: view %q already registered", name)
	}
	reg.views[name] = g
	return nil
}

// Gate returns the named view's gate, or nil.
func (reg *Registry) Gate(name string) *Gate {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.views[name]
}

// Names returns the registered view names, sorted.
func (reg *Registry) Names() []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	names := make([]string, 0, len(reg.views))
	for name := range reg.views {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ServeHTTP implements http.Handler.
func (reg *Registry) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reg.mux.ServeHTTP(w, r)
}

// route strips the /v/{name} prefix and hands the request to that view's
// gate, so every per-view endpoint (/query, /healthz, /repl/stream, ...)
// works unchanged under its mount point.
func (reg *Registry) route(w http.ResponseWriter, r *http.Request) {
	g := reg.Gate(r.PathValue("name"))
	if g == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no view %q", r.PathValue("name")), nil)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + r.PathValue("rest")
	r2.URL.RawPath = ""
	g.ServeHTTP(w, r2)
}

// viewEntry is one row of GET /views.
type viewEntry struct {
	Name       string `json:"name"`
	State      string `json:"state"`
	Generation uint64 `json:"generation"`
}

// entries lists every tenant with the readiness verdict its own /healthz
// gives; ok reports whether every one of them is ready.
func (reg *Registry) entries() (out []viewEntry, ok bool) {
	names := reg.Names()
	out, ok = make([]viewEntry, 0, len(names)), true
	for _, name := range names {
		g := reg.Gate(name)
		state, status := g.readiness()
		ok = ok && status == http.StatusOK
		ent := viewEntry{Name: name, State: state}
		if e := g.engine(); e != nil {
			ent.Generation = e.Generation()
		}
		out = append(out, ent)
	}
	return out, ok
}

func (reg *Registry) viewsIndex(w http.ResponseWriter, r *http.Request) {
	entries, _ := reg.entries()
	writeJSON(w, http.StatusOK, struct {
		Views []viewEntry `json:"views"`
	}{Views: entries})
}

// healthz aggregates tenant readiness: 200 only when every registered view
// is ready, else 503 with the per-view states so an operator sees which
// tenant is still loading, degraded, checkpointing or catching up.
func (reg *Registry) healthz(w http.ResponseWriter, r *http.Request) {
	entries, ok := reg.entries()
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		OK    bool        `json:"ok"`
		Views []viewEntry `json:"views"`
	}{OK: ok, Views: entries})
}

// metrics serves only the process-wide obs.Default families here; each
// tenant's engine families live at /v/{name}/metrics, scraped per-view.
func (reg *Registry) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, obs.Default())
}
