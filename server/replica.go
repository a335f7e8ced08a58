package server

// Follower runtime. A server.Replica keeps a read-only rxview.Replica
// converging on a primary over the /repl HTTP surface: it boots from the
// primary's newest checkpoint, applies the streamed change log one record
// per generation, and re-syncs from a fresh checkpoint whenever the stream
// gaps or the primary pruned the range. Every restore and record apply runs
// on the follower engine's apply goroutine (Engine.exec), so the
// single-writer discipline holds on replicas exactly as on primaries, and
// every applied record publishes an epoch — follower reads are the same
// wait-free snapshot reads, one write-history prefix behind the primary.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"rxview"
)

// ErrReadOnlyReplica marks a write submitted to a follower engine. The
// concrete type is *ReadOnlyReplicaError; the HTTP layer maps it to 421
// (Misdirected Request) with the primary's address in the X-Xview-Primary
// header and the JSON body, so clients re-aim instead of retrying here.
var ErrReadOnlyReplica = errors.New("server: replica is read-only")

// ReadOnlyReplicaError reports one refused write and where it belongs.
type ReadOnlyReplicaError struct {
	Primary string
}

func (e *ReadOnlyReplicaError) Error() string {
	return fmt.Sprintf("server: replica is read-only; write to the primary at %s", e.Primary)
}

// Is matches ErrReadOnlyReplica.
func (e *ReadOnlyReplicaError) Is(target error) bool { return target == ErrReadOnlyReplica }

// FollowStatus is a follower's position relative to its primary. Lag is in
// generations against the newest durable watermark the follower has
// observed; Following reports readiness — the primary has been contacted
// and the lag is inside the follow watermark.
type FollowStatus struct {
	Primary           string `json:"primary"`
	Generation        uint64 `json:"generation"`
	PrimaryGeneration uint64 `json:"primary_generation"`
	Lag               uint64 `json:"lag"`
	Watermark         uint64 `json:"watermark"`
	Following         bool   `json:"following"`
}

type replicaConfig struct {
	watermark uint64
	logf      func(string, ...any)
	engOpts   []Option
}

// ReplicaOption configures a follower runtime.
type ReplicaOption func(*replicaConfig)

// WithFollowWatermark sets how many generations a follower may trail the
// primary's durable watermark and still report ready ("following" turns
// into "ready" on /healthz once lag ≤ n). Default 8.
func WithFollowWatermark(n uint64) ReplicaOption {
	return func(c *replicaConfig) { c.watermark = n }
}

// WithFollowLog routes the follower's reconnect/re-sync notices somewhere
// visible (default: dropped).
func WithFollowLog(f func(format string, args ...any)) ReplicaOption {
	return func(c *replicaConfig) { c.logf = f }
}

// WithEngineOptions forwards options to the follower's serving engine.
func WithEngineOptions(opts ...Option) ReplicaOption {
	return func(c *replicaConfig) { c.engOpts = append(c.engOpts, opts...) }
}

// Replica is the serving side of a follower: the engine that answers reads
// (and refuses writes with 421 + the primary's address) plus the background
// loop that keeps the underlying rxview.Replica converging on the primary.
type Replica struct {
	rep     *rxview.Replica
	e       *Engine
	cfg     replicaConfig
	primary string // base URL of the primary's API (or its /v/{name} prefix)

	// primaryGen is the newest durable watermark observed from the primary
	// (response headers and streamed record generations); contacted flips
	// once the first checkpoint restore succeeded — before that the lag is
	// unknown and the follower must not report ready.
	primaryGen atomic.Uint64
	contacted  atomic.Bool

	stopCtx    context.Context
	stopCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewReplica starts a follower over an opened rxview.Replica: a read-only
// serving engine plus the follow loop fetching primary's checkpoint and
// change-log stream. primary is the base URL of the primary's API ("http://
// host:port", or "http://host:port/v/name" for a registry-hosted view).
// Close stops the loop and the engine.
func NewReplica(rep *rxview.Replica, primary string, opts ...ReplicaOption) *Replica {
	cfg := replicaConfig{watermark: 8}
	for _, o := range opts {
		o(&cfg)
	}
	e := New(rep.View(), cfg.engOpts...)
	e.setPrimary(primary)
	f := &Replica{rep: rep, e: e, cfg: cfg, primary: primary}
	//lint:ignore xviewlint/ctxflow the follow loop's lifetime is the replica's, not any request's; Close cancels it
	f.stopCtx, f.stopCancel = context.WithCancel(context.Background())
	f.wg.Add(1)
	go f.follow()
	return f
}

// Engine returns the follower's serving engine: wait-free reads over the
// replica's published epochs, writes refused with ErrReadOnlyReplica.
func (f *Replica) Engine() *Engine { return f.e }

// Status reports the follower's position. Safe for concurrent use — it is
// the /healthz and /repl/info hook, reading only published state.
func (f *Replica) Status() FollowStatus {
	gen := f.e.Generation()
	pg := f.primaryGen.Load()
	if pg < gen {
		pg = gen
	}
	lag := pg - gen
	return FollowStatus{
		Primary:           f.primary,
		Generation:        gen,
		PrimaryGeneration: pg,
		Lag:               lag,
		Watermark:         f.cfg.watermark,
		Following:         f.contacted.Load() && lag <= f.cfg.watermark,
	}
}

// Close stops the follow loop, waits for it, and closes the engine. The
// replica keeps its last applied state in memory; a restarted process
// re-syncs from the primary's checkpoint. Idempotent.
func (f *Replica) Close() {
	f.stopCancel()
	f.wg.Wait()
	f.e.Close()
}

func (f *Replica) logf(format string, args ...any) {
	if f.cfg.logf != nil {
		f.cfg.logf(format, args...)
	}
}

// notePrimary folds an observed primary watermark into the max, and keeps
// the lag gauge current.
func (f *Replica) notePrimary(gen uint64) {
	for {
		cur := f.primaryGen.Load()
		if gen <= cur || f.primaryGen.CompareAndSwap(cur, gen) {
			break
		}
	}
	pg, own := f.primaryGen.Load(), f.e.Generation()
	if pg > own {
		f.e.met.followLag.Set(int64(pg - own))
	} else {
		f.e.met.followLag.Set(0)
	}
}

// follow is the convergence loop: restore from a checkpoint when needed,
// then ride the stream; reconnect immediately on clean long-poll recycles
// and with jittered exponential backoff on transport failures.
func (f *Replica) follow() {
	defer f.wg.Done()
	var b backoff
	needRestore := true // the locally seeded state is provisional; boot from the primary's copy of record
	for f.stopCtx.Err() == nil {
		err := f.syncOnce(&needRestore)
		if err == nil {
			b = backoff{} // a contact succeeded: the next failure waits from the base again
			continue
		}
		if f.stopCtx.Err() != nil {
			return
		}
		f.e.met.followReconnects.Inc()
		f.logf("replica: %s: %v (reconnecting)", f.primary, err)
		if !b.wait(f.stopCtx) {
			return
		}
	}
}

// syncOnce performs one contact with the primary: an optional checkpoint
// restore, then one stream poll applied record by record. A nil return
// means reconnect immediately (clean poll recycle, or a re-sync was
// scheduled via needRestore); an error means back off first.
func (f *Replica) syncOnce(needRestore *bool) error {
	if *needRestore {
		if err := f.restore(); err != nil {
			return err
		}
		*needRestore = false
	}
	from := f.rep.Generation() // safe: exec verdicts order this goroutine after every apply
	resp, err := f.get("/repl/stream?from=" + strconv.FormatUint(from, 10))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The primary pruned our range: catch up from its newest checkpoint.
		f.e.met.followResyncs.Inc()
		*needRestore = true
		return nil
	default:
		return fmt.Errorf("stream from %d: %s", from, readStatus(resp))
	}
	if d, perr := strconv.ParseUint(resp.Header.Get("X-Xview-Durable"), 10, 64); perr == nil {
		f.notePrimary(d)
	}
	fr := rxview.NewReplFrameReader(resp.Body)
	for {
		rec, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return nil // clean poll end: reconnect with the advanced from
		}
		if err != nil {
			return err // dropped mid-frame or corrupt: reconnect and re-request
		}
		aerr := f.e.exec(f.stopCtx, func() error { return f.rep.ApplyRecord(rec) })
		switch {
		case aerr == nil:
			f.e.met.followRecs.Inc()
			f.notePrimary(rec.Generation())
		case errors.Is(aerr, rxview.ErrCheckpointMismatch):
			// The stream does not continue our generation — we lost part of
			// the history. Replaying anyway would build a wrong state; a
			// checkpoint restore is the only sound continuation.
			f.e.met.followResyncs.Inc()
			*needRestore = true
			return nil
		case errors.Is(aerr, ErrClosed) || f.stopCtx.Err() != nil:
			return nil
		default:
			return aerr
		}
	}
}

// restore fetches the primary's newest checkpoint and swaps it in on the
// apply goroutine.
func (f *Replica) restore() error {
	resp, err := f.get("/repl/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint fetch: %s", readStatus(resp))
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Xview-Generation"), 10, 64)
	if err != nil {
		return fmt.Errorf("checkpoint fetch: bad X-Xview-Generation: %w", err)
	}
	state, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("checkpoint fetch: %w", err)
	}
	if err := f.e.exec(f.stopCtx, func() error { return f.rep.Restore(gen, state) }); err != nil {
		if errors.Is(err, ErrClosed) || f.stopCtx.Err() != nil {
			return nil
		}
		return err
	}
	if d, perr := strconv.ParseUint(resp.Header.Get("X-Xview-Durable"), 10, 64); perr == nil {
		f.notePrimary(d)
	}
	f.notePrimary(gen)
	f.contacted.Store(true)
	return nil
}

// get issues one GET against the primary under the loop's context.
func (f *Replica) get(path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(f.stopCtx, http.MethodGet, f.primary+path, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// readStatus summarizes a non-200 response for an error message.
func readStatus(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if len(body) == 0 {
		return resp.Status
	}
	return resp.Status + ": " + string(body)
}
