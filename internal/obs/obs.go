// Package obs is the telemetry core of the system: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with quantile snapshots), a hand-rolled Prometheus text
// encoder, a JSON variables dump, and a ring-buffer slow-operation log.
//
// The package is built for the single-writer hot path: recording a sample
// is one or two atomic operations on a pre-registered metric handle — no
// map lookup, no lock, no allocation. The locked snapshot API (Gather,
// WritePrometheus, WriteVars, SlowEntries) is for scrape handlers and
// tools only and must never be called from a writer loop; the xviewlint
// obshotpath analyzer enforces that split mechanically.
//
// Two registration scopes exist. Process-wide metrics — the update
// pipeline's phase timings, the WAL, the compiled-path cache — live on the
// Default registry, registered once from package init or a sync.Once.
// Per-instance metrics (one serving engine's counters) live on a private
// Registry the instance creates, so several engines in one process never
// collide; a scrape handler gathers its engine's registry together with
// Default.
//
// SetEnabled(false) strips the timing instrumentation: histogram observes,
// slow-log recording and the Enabled() guards around time.Now pairs become
// no-ops, one atomic load per site (TestSpanDisabledIsFree). Counters and
// gauges keep counting either way — they double as the serving layer's
// Stats source.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates the timing instrumentation (histograms, slow log). The
// default is on; the obs benchmark flips it to price the instrumentation.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether timing instrumentation is collected. Hot paths
// use it to guard time.Now pairs so a disabled build pays one atomic load.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns timing instrumentation (histogram observes, slow-log
// recording) on or off process-wide. Counters and gauges are unaffected.
func SetEnabled(on bool) { enabled.Store(on) }

// Label is one constant name="value" pair attached to a metric at
// registration. Metrics sharing a family name must carry distinct label
// sets; the encoder emits them as one family.
type Label struct {
	Key   string
	Value string
}

// metric kinds, also the Prometheus TYPE names.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// metric is one registered series: a family name, constant labels, and a
// kind-specific read method used by the snapshot layer.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fn     func() float64 // counterFunc / gaugeFunc
	h      *Histogram
}

// family groups the series registered under one name.
type family struct {
	name    string
	help    string
	typ     string
	metrics []*metric
}

// Registry holds named metric families. Registration is locked and meant
// for init time; the returned handles are lock-free. Gather is the locked
// snapshot API — scrape handlers only, never the writer hot path.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry, for per-instance metric sets.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry shared by the cross-cutting
// layers (pipeline, WAL, caches).
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain ':',
// but this package never generates such names).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register adds a series under name, creating or extending the family.
// It panics on an invalid name, a kind/help mismatch with the existing
// family, or a duplicate label set — all programmer errors at init time.
func (r *Registry) register(name, help, typ string, m *metric) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range m.labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l.Key))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	key := labelKey(m.labels)
	for _, prev := range f.metrics {
		if labelKey(prev.labels) == key {
			panic(fmt.Sprintf("obs: duplicate metric %s%s", name, key))
		}
	}
	f.metrics = append(f.metrics, m)
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := "{"
	for _, l := range labels {
		s += l.Key + "=" + l.Value + ","
	}
	return s + "}"
}

// Counter is a monotone counter. Add and Inc are single atomic operations.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewCounter registers a counter series and returns its handle.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, &metric{labels: labels, c: c})
	return c
}

// NewCounterFunc registers a counter series whose value is read from fn at
// gather time — the bridge for pre-existing hand-rolled atomic counters
// (the compiled-path cache, say) that keep their own storage.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeCounter, &metric{labels: labels, fn: fn})
}

// Gauge is a value that can go up and down. Set and Add are single atomic
// operations.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewGauge registers a gauge series and returns its handle.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, typeGauge, &metric{labels: labels, g: g})
	return g
}

// NewGaugeFunc registers a gauge series whose value is read from fn at
// gather time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeGauge, &metric{labels: labels, fn: fn})
}

// NewHistogram registers a histogram series over the given upper bounds
// (ascending; an implicit +Inf bucket is always present) and returns its
// handle. Latency histograms use seconds, per the Prometheus convention;
// LatencyBounds and CountBounds are ready-made bound sets.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, typeHistogram, &metric{labels: labels, h: h})
	return h
}

// Family is one gathered metric family, in registration order.
type Family struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram
	Samples []Sample
}

// Sample is one gathered series of a family.
type Sample struct {
	Labels []Label
	Value  float64       // counter and gauge
	Hist   *HistSnapshot // histogram
}

// Gather snapshots every registered series. This is the locked slow-path
// API: scrape handlers and tools only, never the writer hot path.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.order))
	for _, name := range r.order {
		f := r.fams[name]
		fam := Family{Name: f.name, Help: f.help, Type: f.typ}
		for _, m := range f.metrics {
			s := Sample{Labels: m.labels}
			switch {
			case m.c != nil:
				s.Value = float64(m.c.Value())
			case m.g != nil:
				s.Value = float64(m.g.Value())
			case m.fn != nil:
				s.Value = m.fn()
			case m.h != nil:
				s.Hist = m.h.Snapshot()
			}
			fam.Samples = append(fam.Samples, s)
		}
		out = append(out, fam)
	}
	return out
}

// GatherAll merges the families of several registries, in argument order —
// the scrape shape of a handler exposing the process-wide Default registry
// alongside its engine's private one.
func GatherAll(regs ...*Registry) []Family {
	var out []Family
	for _, r := range regs {
		if r != nil {
			out = append(out, r.Gather()...)
		}
	}
	return out
}

// LatencyBounds returns the standard latency bucket bounds in seconds:
// exponential, 250ns doubling through ~67s (30 buckets), wide enough for a
// 50ns memo hit to land in the first bucket and a stuck fsync in the last.
func LatencyBounds() []float64 {
	return ExpBounds(250e-9, 2, 30)
}

// CountBounds returns bucket bounds for small-count histograms (coalesced
// run sizes, generation lag): 1, 2, 4, ... doubling n times.
func CountBounds(n int) []float64 {
	return ExpBounds(1, 2, n)
}

// ExpBounds returns n exponential bucket bounds start, start*factor, ....
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// addFloat atomically adds v to an atomic float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// sortedCopy returns labels sorted by key, for stable encoding.
func sortedCopy(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
