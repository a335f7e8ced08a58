// Package repl is the transport-neutral half of the replication layer: the
// live tail of a primary's committed change log and the Source that streams
// it — WAL catch-up for the cold range, the in-memory ring for the hot
// range, a long-poll wait when a follower is caught up. The HTTP endpoints
// and the follower's apply loop live in the server layer; this package only
// moves framed record bytes.
//
// The correctness pivot is the durable watermark. WAL segment bytes are
// visible to concurrent readers the moment write(2) returns, including
// bytes a failed fsync is about to truncate back out — so nothing here
// trusts the files alone. A record is streamable only once the durable
// view's commit sink has published it to the Tail, which is the statement
// after the log's Append returned nil; the watermark the Tail advances is
// what separates the primary's acknowledged history from in-flight bytes.
package repl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// framed is one committed record in wire form.
type framed struct {
	gen   uint64
	bytes []byte
}

// Tail is the live end of the change log: a bounded ring of the newest
// framed records plus the durable watermark and a broadcast that wakes
// long-polling streams. One producer (the writer goroutine, in the commit
// sink), many concurrent readers.
type Tail struct {
	durable atomic.Uint64

	mu   sync.Mutex
	ring []framed // generation-ascending; the newest max at least, max+max/4 at most
	max  int
	wake chan struct{} // closed and replaced on every publish
}

// NewTail returns a tail whose watermark starts at the primary's current
// generation. capacity bounds the ring (default 1024 records); streams that
// fall further behind catch up from the WAL files instead.
func NewTail(start uint64, capacity int) *Tail {
	if capacity <= 0 {
		capacity = 1024
	}
	t := &Tail{ring: make([]framed, 0, capacity+capacity/4), max: capacity, wake: make(chan struct{})}
	t.durable.Store(start)
	return t
}

// Publish appends one durably committed record's framed bytes and advances
// the watermark to gen. The caller is the single writer; generations arrive
// contiguously. The frame must not be mutated afterwards.
func (t *Tail) Publish(gen uint64, frame []byte) {
	t.mu.Lock()
	t.ring = append(t.ring, framed{gen: gen, bytes: frame})
	if len(t.ring) > t.max && len(t.ring) == cap(t.ring) {
		// Out of headroom: compact to a fresh backing array so dropped
		// frames are collectable. The new array has a quarter of max to
		// spare, so this runs once per max/4 publishes, not on each.
		keep := t.ring[len(t.ring)-t.max:]
		t.ring = append(make([]framed, 0, t.max+t.max/4), keep...)
	}
	wake := t.wake
	t.wake = make(chan struct{})
	t.durable.Store(gen)
	t.mu.Unlock()
	close(wake)
}

// Durable returns the newest generation the sink has accepted — the upper
// bound of what a stream may emit.
func (t *Tail) Durable() uint64 { return t.durable.Load() }

// Frames returns the framed records of generations (from, to] when the ring
// still holds all of them; ok=false means the range has aged out and the
// caller must scan the WAL files.
func (t *Tail) Frames(from, to uint64) (frames [][]byte, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 || t.ring[0].gen > from+1 {
		return nil, false
	}
	for _, f := range t.ring {
		if f.gen <= from {
			continue
		}
		if f.gen > to {
			break
		}
		frames = append(frames, f.bytes)
	}
	return frames, true
}

// Wait blocks until the durable generation exceeds gen, returning true, or
// until ctx ends or the poll window elapses, returning false.
func (t *Tail) Wait(ctx context.Context, gen uint64, window time.Duration) bool {
	timer := time.NewTimer(window)
	defer timer.Stop()
	for {
		t.mu.Lock()
		wake := t.wake
		t.mu.Unlock()
		if t.Durable() > gen {
			return true
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return false
		case <-timer.C:
			return false
		}
	}
}
