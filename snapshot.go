package rxview

import (
	"context"

	"rxview/internal/core"
	"rxview/internal/obs"
)

// Generation counts the write units committed to the view since Open: it
// increments exactly once per applied insertion or deletion (Apply, and
// each applied member of a non-atomic Batch) and exactly once per committed
// Begin transaction, however many updates it staged — never for rejected,
// skipped, no-op, rolled-back or dry-run updates. A Snapshot carries the
// generation it was taken at, so an observed query result can be attributed
// to an exact prefix of the write history; an atomic group occupies a
// single generation step, so no snapshot can expose part of one.
func (v *View) Generation() uint64 { return v.sys.Generation() }

// Snapshot freezes the current view state into an immutable epoch: the
// DAG-compressed view, sealed at the current generation. The snapshot answers queries, renders statistics and
// serializes XML without touching the live view, so any number of goroutines
// may share one Snapshot while the view keeps applying updates.
//
// Sealing is copy-on-write: its cost is proportional to what changed since
// the previous Snapshot call (O(Δ)), not to the view size — unchanged
// state is shared between the live view and every sealed epoch, which is
// what lets a serving layer publish a fresh snapshot per applied write.
//
// Taking the snapshot itself is a read of the live view and must not run
// concurrently with Apply/Batch on the same View — a View is single-writer.
// The server package's Engine does exactly that serialization: its apply
// loop snapshots after each write and publishes the result atomically, which
// is how reads become wait-free under write load.
//
// Snapshot panics while a Begin transaction is open: an epoch must never
// expose staged-but-uncommitted state. Commit or roll back first (the
// Engine publishes only between write units, so it can never hit this).
func (v *View) Snapshot() *Snapshot {
	return &Snapshot{sn: v.sys.Snapshot()}
}

// PathCacheStats returns the hit/miss counters of the process-wide
// compiled-path cache that View.Query, Snapshot.Query and the server
// handlers parse through. Monotone; shared by every view in the process.
func PathCacheStats() (hits, misses uint64) { return core.PathCacheStats() }

// Snapshot is an immutable copy of a View at one generation. All methods
// are safe for concurrent use by any number of goroutines. See
// View.Snapshot.
type Snapshot struct {
	sn *core.Snapshot
}

// Generation returns the write-history prefix this snapshot reflects.
func (s *Snapshot) Generation() uint64 { return s.sn.Generation() }

// Digest returns the state digest at the snapshot's generation, as
// View.Digest would have at the moment the snapshot was taken.
func (s *Snapshot) Digest() (d Digest, ok bool) { return s.sn.Digest() }

// Query evaluates an XPath expression against the frozen state and returns
// the selected nodes r[[p]] — the same fragment and semantics as
// View.Query, at this snapshot's epoch. The path text is compiled through
// the process-wide compiled-path cache: a hot query parses once, and a
// malformed one fails fast on its cached error without allocating an
// evaluator.
func (s *Snapshot) Query(ctx context.Context, path string) ([]Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := core.ParsePath(path)
	if err != nil {
		return nil, parseErr(path, err)
	}
	res, err := s.sn.Select(p)
	if err != nil {
		return nil, err
	}
	obs.NoteRoute(ctx, res.Route.String())
	return nodesOf(s.sn.DAG(), s.sn.Text(), res.Selected), nil
}

// Stats computes the frozen view's statistics.
func (s *Snapshot) Stats() Stats { return statsOf(s.sn.Stats()) }

// XML returns the serialized frozen view; maxNodes bounds the unfolded
// tree size.
func (s *Snapshot) XML(maxNodes int) (string, error) { return s.sn.XML(maxNodes) }
