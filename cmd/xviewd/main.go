// xviewd is the view-serving daemon: it publishes a dataset as a recursive
// XML view and exposes it over HTTP/JSON, with snapshot-isolated reads and
// a single-writer apply loop (see the server package for the consistency
// model).
//
// Usage:
//
//	xviewd [-addr :8080] [-dataset registrar|synthetic] [-nc 1000]
//	       [-seed 42] [-force] [-timeout 10s] [-queue 256]
//	       [-shed-watermark N]
//	       [-data DIR] [-fsync always|batch|off] [-checkpoint-every 256]
//	       [-replica-of URL] [-follow-watermark N]
//	       [-views FILE]
//	       [-slow-threshold 100ms] [-debug-addr ADDR]
//	       [-chaos SPEC] [-chaos-seed N]
//
// With -data, the view is durable: committed updates are logged to DIR
// before their verdict is returned, and a restart pointing at the same DIR
// recovers every committed generation (newest checkpoint plus log replay).
// A durable primary also serves the replication endpoints (GET
// /repl/checkpoint, /repl/stream, /repl/info), so followers can attach
// without further configuration.
//
// With -replica-of URL, the process is a read-only follower of the durable
// primary at URL: it boots from the primary's newest checkpoint, applies
// the streamed change log, and serves the same read endpoints one
// write-history prefix behind. Writes answer 421 with the primary's
// address; /healthz answers 503 state "following" until the follower is
// within -follow-watermark generations of the primary. A follower is not
// durable itself (-data is rejected) — a restarted follower re-syncs from
// the primary's checkpoint.
//
// With -views FILE, the process hosts many named views behind
// /v/{name}/... routing. The file is a JSON array of entries whose fields
// are the per-view flags:
//
//	[
//	  {"name": "reg",  "dataset": "registrar", "data": "/var/xview/reg"},
//	  {"name": "syn",  "dataset": "synthetic", "nc": 500, "seed": 7},
//	  {"name": "mirr", "replica_of": "http://primary:8080/v/reg"}
//	]
//
// Every entry gets its own writer loop, its own optional durability
// directory or upstream, and a private metric registry: /v/{name}/metrics
// shows only that view's engine families, while the top-level /metrics
// serves the process-wide shared families, /views lists the tenants and
// /healthz is 200 only when every tenant is ready. The per-view flags
// (-dataset, -nc, -seed, -force, -data, -fsync, -checkpoint-every,
// -replica-of) are refused beside -views; the others apply to every view.
//
// Endpoints:
//
//	POST /query   {"path": "//course"}
//	POST /update  {"kind":"insert","type":"student","values":["S1","Ann"],
//	               "path":"//course[cno=\"CS650\"]/takenBy"}
//	POST /batch   {"updates":[...]}
//	POST /tx      {"updates":[...]}
//	GET  /stats
//	GET  /healthz      readiness: 503 with the state while boot replay is
//	                   running, the view is degraded, a checkpoint stalls
//	                   the writer or a follower is catching up
//	GET  /livez        liveness: 200 as soon as the process listens
//	GET  /metrics      Prometheus text exposition (all layers)
//	GET  /debug/vars   the same metrics as JSON
//	GET  /debug/slow   slow-query/slow-commit ring buffer
//
// The listener starts before the views load: /healthz answers 503 (state
// "loading" or "recovering") until recovery finishes, so load balancers
// keep a replaying node out of rotation without killing it. After a disk
// failure /healthz answers 503 with state "degraded" — writes are refused
// while snapshot reads keep serving, and the recovery prober restores
// "ready" without a restart. Writes beyond the shed watermark answer 429
// with a Retry-After estimate instead of queuing. -debug-addr additionally
// serves net/http/pprof on a separate, normally-private address.
//
// -chaos arms the deterministic fault-injection framework (resilience
// testing only — never in production) once every view has booted: a
// semicolon-separated list of fault points with options, e.g.
// "wal.fsync:after=100,count=1" or "wal.slow-io:latency=5ms,every=10"; see
// rxview.EnableChaos for the grammar and rxview.FaultPoints for the
// catalog. -chaos-seed makes probabilistic rules reproducible.
//
// SIGINT/SIGTERM triggers a graceful shutdown: in-flight requests drain,
// then the apply loops stop; a durable view seals a final checkpoint so the
// next boot recovers without replay.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"rxview"
	"rxview/server"
)

var (
	addr    = flag.String("addr", ":8080", "listen address")
	dataset = flag.String("dataset", "registrar", "registrar or synthetic")
	nc      = flag.Int("nc", 1000, "synthetic dataset size |C|")
	seed    = flag.Int64("seed", 42, "synthetic generator seed")
	force   = flag.Bool("force", false, "carry out updates with XML side effects (revised semantics)")
	timeout = flag.Duration("timeout", 10*time.Second, "per-request timeout of writes and query evaluations; a memo hit evaluates nothing (0 = none)")
	queue   = flag.Int("queue", 256, "apply-loop queue depth")
	shedAt  = flag.Int("shed-watermark", 0,
		"queue depth at which writes are shed with 429 (0 = the queue depth itself)")

	dataDir   = flag.String("data", "", "durability directory (empty = in-memory only)")
	fsync     = flag.String("fsync", "always", "log sync policy: always, batch or off")
	ckptEvery = flag.Int("checkpoint-every", 0, "commits between checkpoints (0 = default)")

	replicaOf = flag.String("replica-of", "",
		"follow the durable primary at this base URL (read-only replica mode)")
	followMark = flag.Uint64("follow-watermark", 8,
		"generations a follower may lag and still report ready")
	viewsCfg = flag.String("views", "",
		"JSON view-set file: host many named views behind /v/{name}/... (multi-tenant mode)")

	slowThresh = flag.Duration("slow-threshold", 100*time.Millisecond,
		"queries/commits slower than this land in /debug/slow (0 = disabled)")
	debugAddr = flag.String("debug-addr", "",
		"serve net/http/pprof on this extra address (empty = no pprof)")

	chaosSpec = flag.String("chaos", "",
		"arm deterministic fault injection (resilience testing only): point[:opt,...][;point...]")
	chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection PRNG seed")
)

// perViewFlags configure the one view of single-view mode; a -views file
// sets the same fields per entry.
var perViewFlags = []string{"dataset", "nc", "seed", "force", "data", "fsync", "checkpoint-every", "replica-of"}

// viewSpec is one view to host: an entry of the -views file, or the
// per-view flags in single-view mode (Name empty).
type viewSpec struct {
	Name            string `json:"name"`
	Dataset         string `json:"dataset"` // registrar (default) or synthetic
	NC              int    `json:"nc"`
	Seed            int64  `json:"seed"`
	Force           bool   `json:"force"`
	Data            string `json:"data"` // durability directory; also enables /repl
	Fsync           string `json:"fsync"`
	CheckpointEvery int    `json:"checkpoint_every"`
	ReplicaOf       string `json:"replica_of"` // follow this primary instead of taking writes
}

func main() {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	if err := run(ctx, stop); err != nil {
		log.Fatal(err)
	}
	log.Print("xviewd: shut down cleanly")
}

// run serves until ctx is canceled: it mounts a gate per view — the gate
// itself at / in single-view mode, a Registry over them with -views —
// starts listening, boots the views one by one, and then arms chaos.
func run(ctx context.Context, stop context.CancelFunc) error {
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	// Every gate is mounted before the listener starts, so health probes
	// answer while the views boot and /views lists the whole set.
	gates := make([]*server.Gate, len(specs))
	var h http.Handler
	var reg *server.Registry
	if *viewsCfg != "" {
		reg = server.NewRegistry()
		h = reg
	}
	for i, spec := range specs {
		gates[i] = server.NewGate("loading")
		if reg == nil {
			h = gates[i]
		} else if err := reg.Add(spec.Name, gates[i]); err != nil {
			return fmt.Errorf("xviewd: -views: %w", err)
		}
	}

	// Shutdown closes the views in reverse boot order. A view whose boot
	// finishes after the listener's shutdown ran is closed by the second
	// call below; the mutex orders the two against the boot loop's appends.
	var (
		mu       sync.Mutex
		closers  []func() error
		closeErr error
	)
	shutdown := func() {
		mu.Lock()
		defer mu.Unlock()
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil {
				closeErr = errors.Join(closeErr, err)
			}
		}
		closers = nil
	}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ctx, *addr, h, shutdown) }()
	log.Printf("xviewd: listening on %s (readiness gated until the views are up)", *addr)

	abort := func(err error) error {
		stop()
		<-errc
		shutdown()
		return err
	}
	opens := make([]func(), len(specs))
	for i, spec := range specs {
		open, closer, err := openView(spec, gates[i])
		if err != nil {
			if spec.Name != "" {
				err = fmt.Errorf("view %q: %w", spec.Name, err)
			}
			return abort(fmt.Errorf("xviewd: %w", err))
		}
		opens[i] = open
		mu.Lock()
		closers = append(closers, closer)
		mu.Unlock()
	}
	// Chaos is armed once every view has booted — the injected faults
	// target the serving path, not the replay of a directory that is
	// already healthy — and before any gate opens, so no request is served
	// unarmed.
	if *chaosSpec != "" {
		if err := rxview.EnableChaos(*chaosSpec, *chaosSeed); err != nil {
			return abort(fmt.Errorf("xviewd: -chaos: %w", err))
		}
		log.Printf("xviewd: CHAOS ARMED (seed %d): %s — injected faults are live, do not use in production",
			*chaosSeed, *chaosSpec)
	}
	for _, open := range opens {
		open()
	}
	log.Print("xviewd: ready")
	err = <-errc
	shutdown()
	return errors.Join(err, closeErr)
}

// serveDebug mounts the pprof handlers on their own listener — profiling
// stays off the public API address and off unless asked for.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	log.Printf("xviewd: pprof on %s", addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("xviewd: pprof server: %v", err)
	}
}

// loadSpecs returns the views to host: the -views file's entries, or one
// entry built from the per-view flags.
func loadSpecs() ([]viewSpec, error) {
	if *viewsCfg == "" {
		return []viewSpec{{Dataset: *dataset, NC: *nc, Seed: *seed, Force: *force, Data: *dataDir,
			Fsync: *fsync, CheckpointEvery: *ckptEvery, ReplicaOf: *replicaOf}}, nil
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(perViewFlags, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return nil, fmt.Errorf("xviewd: %s configure one view and cannot be combined with -views: set them per entry in %s",
			strings.Join(set, ", "), *viewsCfg)
	}
	raw, err := os.ReadFile(*viewsCfg)
	if err != nil {
		return nil, fmt.Errorf("xviewd: -views: %w", err)
	}
	var specs []viewSpec
	if err := json.Unmarshal(raw, &specs); err != nil {
		return nil, fmt.Errorf("xviewd: -views %s: %w", *viewsCfg, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("xviewd: -views %s: no views defined", *viewsCfg)
	}
	return specs, nil
}

// openView boots one view — a primary, durable or in memory, or a follower
// of spec.ReplicaOf — behind gate. open opens the gate; closer closes the
// view: the engine, then a primary's view, which seals a final checkpoint
// so the next boot recovers without replay.
func openView(spec viewSpec, gate *server.Gate) (open func(), closer func() error, err error) {
	label := "xviewd:"
	if spec.Name != "" {
		label = fmt.Sprintf("xviewd: view %q:", spec.Name)
	}
	hopts := server.HandlerOptions{
		Timeout:            *timeout,
		PrivateMetricsOnly: spec.Name != "", // a tenant: /v/{name}/metrics shows only this view
	}
	engOpts := []server.Option{server.WithQueueDepth(*queue)}
	if *shedAt > 0 {
		engOpts = append(engOpts, server.WithShedWatermark(*shedAt))
	}
	atg, db, err := sources(spec.Dataset, spec.NC, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	var opts []rxview.Option
	if spec.Force {
		opts = append(opts, rxview.WithForceSideEffects())
	}

	if spec.ReplicaOf != "" {
		if spec.Data != "" {
			return nil, nil, errors.New("a follower is not durable itself; drop its data directory (it re-syncs from the primary's checkpoint on restart)")
		}
		rep, err := rxview.OpenReplica(atg, db, opts...)
		if err != nil {
			return nil, nil, err
		}
		f := server.NewReplica(rep, spec.ReplicaOf,
			server.WithFollowWatermark(*followMark),
			server.WithFollowLog(log.Printf),
			server.WithEngineOptions(engOpts...))
		f.Engine().SetSlowThreshold(*slowThresh)
		hopts.Follow = f.Status
		log.Printf("%s following %s (ready once lag ≤ %d)", label, spec.ReplicaOf, *followMark)
		return func() { gate.SetReady(f.Engine(), hopts) }, func() error { f.Close(); return nil }, nil
	}

	fsyncPolicy := cmp.Or(spec.Fsync, "always")
	if spec.Data != "" {
		pol, err := rxview.ParseFsyncPolicy(fsyncPolicy)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts,
			rxview.WithDurability(spec.Data),
			rxview.WithFsync(pol),
			rxview.WithRecoveryWarn(func(msg string) { log.Printf("%s %s", label, msg) }))
		if spec.CheckpointEvery > 0 {
			opts = append(opts, rxview.WithCheckpointEvery(spec.CheckpointEvery))
		}
		gate.SetState("recovering")
	}
	view, err := rxview.Open(atg, db, opts...)
	if err != nil {
		return nil, nil, err
	}
	if spec.Data != "" {
		log.Printf("%s durable at %s (fsync=%s), recovered generation %d", label, spec.Data, fsyncPolicy, view.Generation())
		src, err := view.ReplSource()
		if err != nil {
			view.Close()
			return nil, nil, fmt.Errorf("replication source: %w", err)
		}
		hopts.Repl = src
		log.Printf("%s replication source on /repl (durable generation %d)", label, src.Generation())
	}
	log.Printf("%s %s view loaded — %s", label, cmp.Or(spec.Dataset, "registrar"), view.Stats())
	hopts.Checkpointing = view.Checkpointing
	eng := server.New(view, engOpts...)
	eng.SetSlowThreshold(*slowThresh)
	return func() { gate.SetReady(eng, hopts) }, func() error {
		eng.Close()
		if err := view.Close(); err != nil {
			return fmt.Errorf("%s final checkpoint: %w", label, err)
		}
		return nil
	}, nil
}

// sources builds the schema and base relations for a named dataset.
func sources(ds string, nc int, seed int64) (*rxview.ATG, *rxview.DB, error) {
	switch ds {
	case "", "registrar":
		return rxview.NewRegistrar()
	case "synthetic":
		syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return syn.ATG, syn.DB, nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", ds)
	}
}
