package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rxview"
	"rxview/server"
)

// datasetSeed fixes the synthetic §5 dataset. The run's -seed drives the
// operation sequence only: a dataset that changed with the seed would change
// the view's size, and with it every metric, from run to run.
const datasetSeed = 42

// requestTimeout is xviewd's default -timeout.
const requestTimeout = 10 * time.Second

// buildConfig is what distinguishes one served view from another.
type buildConfig struct {
	nc        int
	dir       string // durability directory; "" serves from memory
	ckptEvery int    // 0 keeps the library default
}

// instance is one served view, assembled the way xviewd's runPrimary does
// it: Open (durable: fsync=always, the daemon default) → ReplSource →
// server.New → server.NewHandler on a loopback TCP listener.
type instance struct {
	cfg    buildConfig
	syn    *rxview.Synthetic
	view   *rxview.View
	eng    *server.Engine
	repl   *rxview.ReplSource
	srv    *http.Server
	served chan error
	url    string
}

func generate(nc int) (*rxview.Synthetic, error) {
	return rxview.NewSynthetic(rxview.SyntheticConfig{NC: nc, Seed: datasetSeed})
}

func viewOptions(cfg buildConfig) []rxview.Option {
	opts := []rxview.Option{rxview.WithForceSideEffects()}
	if cfg.dir != "" {
		opts = append(opts, rxview.WithDurability(cfg.dir), rxview.WithFsync(rxview.FsyncAlways))
		if cfg.ckptEvery > 0 {
			opts = append(opts, rxview.WithCheckpointEvery(cfg.ckptEvery))
		}
	}
	return opts
}

// build generates the dataset and serves it; tr records a span per step.
func build(cfg buildConfig, tr *tracer) (*instance, error) {
	req := tr.request()
	sp := tr.start("workload.generate", req, -1)
	syn, err := generate(cfg.nc)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generating |C|=%d: %w", cfg.nc, err)
	}
	name := "core.open"
	if cfg.dir != "" {
		name = "core.open_durable"
	}
	sp = tr.start(name, req, -1)
	view, err := rxview.Open(syn.ATG, syn.DB, viewOptions(cfg)...)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("opening the view: %w", err)
	}
	return serve(cfg, syn, view)
}

// serve puts an opened view behind the engine and a loopback listener.
func serve(cfg buildConfig, syn *rxview.Synthetic, view *rxview.View) (*instance, error) {
	in := &instance{cfg: cfg, syn: syn, view: view, served: make(chan error, 1)}
	hopts := server.HandlerOptions{Timeout: requestTimeout, Checkpointing: view.Checkpointing}
	if cfg.dir != "" {
		src, err := view.ReplSource()
		if err != nil {
			_ = view.Close()
			return nil, fmt.Errorf("replication source: %w", err)
		}
		in.repl, hopts.Repl = src, src
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = view.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	in.eng = server.New(view)
	in.srv = &http.Server{Handler: server.NewHandler(in.eng, hopts), ReadHeaderTimeout: 5 * time.Second}
	in.url = "http://" + ln.Addr().String()
	go func() { in.served <- in.srv.Serve(ln) }()
	return in, nil
}

// stopServing shuts the listener and the engine down; the view stays open
// and, the engine gone, may be used directly again.
func (in *instance) stopServing() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.eng.Close()
	return err
}

// close is stopServing plus View.Close (a durable view seals a final
// checkpoint there).
func (in *instance) close() error {
	err := in.stopServing()
	if cerr := in.view.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop HTTP connection: the next request is sent only
// after the previous response has been read to its end.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	read *int64 // response bytes read; may be shared by clients of one goroutine
}

// newClient returns a client that adds the response bytes it reads to
// *read (nil: not counted).
func newClient(base string, read *int64) *client {
	if read == nil {
		read = new(int64)
	}
	return &client{
		base: base,
		read: read,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body; the body is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	n, err := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	*c.read += n
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// queryBody is the /query request for one path.
func queryBody(path string) []byte {
	b, _ := json.Marshal(struct {
		Path string `json:"path"`
	}{path}) // a struct of one string cannot fail to marshal
	return b
}

// query posts a pre-encoded /query body and returns the generation and
// count the response carries.
func (c *client) query(body []byte) (gen uint64, count int, err error) {
	status, resp, err := c.do(http.MethodPost, "/query", body)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("/query: status %d: %s", status, clip(resp))
	}
	return queryHead(resp)
}

// queryHead reads "generation" and "count" off the front of a /query
// response. The node list that follows can be tens of kilobytes; decoding
// it in the client, which shares the process with the server, would charge
// the server for the harness's work. This is the only decoder: a response
// whose first bytes do not carry both numbers is a failed operation, so a
// change of the wire format shows as failures and not as a shift in what the
// latencies include.
func queryHead(resp []byte) (gen uint64, count int, err error) {
	head := resp
	if len(head) > 96 {
		head = head[:96]
	}
	g, ok1 := numberAfter(head, `"generation"`)
	n, ok2 := numberAfter(head, `"count"`)
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("/query: response does not start with generation and count: %s", clip(resp))
	}
	return g, int(n), nil
}

// numberAfter parses the unsigned integer that follows key, a colon and any
// white space in b; the digits must end inside b.
func numberAfter(b []byte, key string) (uint64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	for j < len(b) && (b[j] == ':' || b[j] == ' ' || b[j] == '\n' || b[j] == '\t') {
		j++
	}
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	if k == j || k == len(b) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(b[j:k]), 10, 64)
	return v, err == nil
}

// updateWire is the /update request body.
type updateWire struct {
	Kind   string `json:"kind"`
	Path   string `json:"path"`
	Type   string `json:"type,omitempty"`
	Values []any  `json:"values,omitempty"`
}

// insertBody is the /update request inserting C(key, val) under path.
func insertBody(path string, key int64, val string) []byte {
	b, _ := json.Marshal(updateWire{Kind: "insert", Path: path, Type: "C", Values: []any{key, val}}) // strings and integers cannot fail to marshal
	return b
}

// deleteBody is the /update request deleting path.
func deleteBody(path string) []byte {
	b, _ := json.Marshal(updateWire{Kind: "delete", Path: path}) // as above
	return b
}

// update posts a pre-encoded /update body and returns the generation the
// verdict carries and whether the update applied.
func (c *client) update(body []byte) (gen uint64, applied bool, err error) {
	status, resp, err := c.do(http.MethodPost, "/update", body)
	if err != nil {
		return 0, false, err
	}
	if status != http.StatusOK {
		return 0, false, fmt.Errorf("/update: status %d: %s", status, clip(resp))
	}
	var out struct {
		Generation uint64 `json:"generation"`
		Report     *struct {
			Applied bool `json:"applied"`
		} `json:"report"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, false, fmt.Errorf("/update: decoding response: %w", err)
	}
	return out.Generation, out.Report != nil && out.Report.Applied, nil
}

// stats fetches /stats.
func (c *client) stats() (server.Stats, error) {
	var st server.Stats
	status, resp, err := c.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", status)
	}
	return st, json.Unmarshal(resp, &st)
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// scratchRoot makes the directory a run keeps its WAL directories and crash
// images in: inside the checkout, under the build directory .gitignore
// names, and new for every runner, so no run opens what another left behind.
func scratchRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// copyDir byte-copies the regular files of src into a new directory dst.
// Copying a live WAL directory this way takes the crash image: what a
// process killed now would find on restart.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// walRecords counts the commit records a WAL directory holds past its
// newest checkpoint: what a recovery of it replays.
func walRecords(dir string) (int, error) {
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, seg := range info.Segments {
		n += len(seg.Records)
	}
	return n, nil
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 5

// setUp performs the whole set-up — generate, Open, engine and listener,
// first query answered — setupRepeats times and keeps the last build. The
// previous build is discarded and collected before each, so every repeat
// starts from the same heap.
func setUp(cfg buildConfig, repeats int, firstQuery []byte, tr *tracer) (*instance, time.Duration, error) {
	var times []time.Duration
	var in *instance
	for i := 0; i < repeats; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, 0, fmt.Errorf("closing set-up build %d: %w", i, err)
			}
			in = nil
		}
		if cfg.dir != "" {
			if err := os.RemoveAll(cfg.dir); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = build(cfg, tr); err != nil {
			return nil, 0, err
		}
		c := newClient(in.url, nil)
		_, _, err = c.query(firstQuery)
		c.closeIdle()
		if err != nil {
			_ = in.close()
			return nil, 0, fmt.Errorf("first query: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	return in, medianDur(times), nil
}
