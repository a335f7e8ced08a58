package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one operation that exceeded the slow threshold.
type SlowEntry struct {
	At       time.Time     `json:"at"`
	Kind     string        `json:"kind"` // "query" | "commit" | ...
	Detail   string        `json:"detail"`
	Route    string        `json:"route,omitempty"` // how Detail's XPath was evaluated: "anchored" | "down" | "sweep"
	Duration time.Duration `json:"duration_ns"`
	Gen      uint64        `json:"gen"`
}

// SlowLog is a fixed-capacity ring buffer of slow operations. Recording
// first compares against the threshold with a single atomic load — the
// common (fast) case takes the lock only when an operation is actually
// slow, so the hot path cost is one load and one compare. Reading the
// entries (SlowEntries) is the locked slow-path side.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 disables
	dropped   atomic.Uint64

	mu   sync.Mutex
	ring []SlowEntry
	next int // ring write cursor
	n    int // entries filled, <= len(ring)
}

// NewSlowLog returns a ring of the given capacity (minimum 1).
func NewSlowLog(capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{ring: make([]SlowEntry, capacity)}
}

// SetThreshold sets the duration above which operations are recorded;
// zero or negative disables the log entirely.
func (l *SlowLog) SetThreshold(d time.Duration) {
	l.threshold.Store(int64(d))
}

// Threshold returns the current threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// RecordRoute is Record for an operation that evaluated an XPath: the entry
// also names the route the evaluation took.
func (l *SlowLog) RecordRoute(kind, detail, route string, d time.Duration, gen uint64) {
	th := l.threshold.Load()
	if th <= 0 || int64(d) < th || !enabled.Load() {
		return
	}
	e := SlowEntry{At: time.Now(), Kind: kind, Detail: detail, Route: route, Duration: d, Gen: gen}
	l.mu.Lock()
	if l.n == len(l.ring) {
		l.dropped.Add(1)
	} else {
		l.n++
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	l.mu.Unlock()
}

// Entries returns the recorded entries, newest first, plus how many older
// entries the ring has evicted. Locked-API side.
func (l *SlowLog) Entries() (entries []SlowEntry, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries = make([]SlowEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		idx := (l.next - 1 - i + len(l.ring)*2) % len(l.ring)
		entries = append(entries, l.ring[idx])
	}
	return entries, l.dropped.Load()
}

// routeSlotKey carries a *string down a request's context. A read returns
// nodes, not a report, so the layer that owns the SlowLog has no other way
// to learn which route the evaluation below it took: it hangs a slot on the
// context, and the layer that evaluates fills it.
type routeSlotKey struct{}

// WithRouteSlot returns a context carrying slot for NoteRoute to fill.
func WithRouteSlot(ctx context.Context, slot *string) context.Context {
	return context.WithValue(ctx, routeSlotKey{}, slot)
}

// NoteRoute stores the evaluation route in the slot the context carries, if
// it carries one.
func NoteRoute(ctx context.Context, route string) {
	if slot, ok := ctx.Value(routeSlotKey{}).(*string); ok {
		*slot = route
	}
}
