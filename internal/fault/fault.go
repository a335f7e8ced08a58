// Package fault is the deterministic fault-injection framework behind the
// durability seams. Production code is instrumented with named fault
// points — fault.Hit(fault.WALFsync) at the site where an fsync can fail —
// and a test (or xviewd -chaos) installs a seeded Plan that decides, per
// hit, whether the point fires. With no plan installed a hit is one atomic
// load, so the instrumentation is free in production.
//
// Determinism is the whole design: a Plan owns a math/rand source seeded
// by the caller, and firing decisions depend only on the seed and the
// sequence of hits, never on wall-clock time. The same seed against the
// same workload yields the same fault schedule, which is what lets the
// chaos soak shrink a failure to a reproducible case.
//
// Every point a Hit call names is declared in the catalog below, and the
// type sees to it: a Point's one field is unexported, so a string, a
// conversion or a Point constant or literal written in another package does
// not compile, and the catalog is the complete inventory of ways this
// system can be made to fail. The price is that the catalog entries are variables, where string
// constants could not be reassigned; nothing assigns to them, so nothing
// guards against it.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rxview/internal/obs"
)

// Point names one instrumented failure site. Only this package can make
// one; the zero Point is no site, and NewPlan refuses it.
type Point struct{ name string }

// String returns the point's spec-string name, the one ParseSpec accepts
// and injected errors report.
func (p Point) String() string { return p.name }

// The fault-point catalog: the only Points there are, each instrumentable
// and addressable from a chaos spec.
var (
	// WALAppend fails the write(2) of a framed record batch to the active
	// segment. The log truncates the partial write away, so the records
	// were never durable and the commit rolls back.
	WALAppend = Point{"wal.append"}
	// WALFsync fails the fsync after an append: the bytes reached the
	// kernel but the durability guarantee cannot be given.
	WALFsync = Point{"wal.fsync"}
	// WALDiskFull fails an append with ENOSPC semantics — the classic
	// slowly-then-suddenly disk failure.
	WALDiskFull = Point{"wal.disk-full"}
	// WALSlowIO stalls an append for the rule's Latency without failing
	// it — a degrading disk or a saturated volume. It is how the overload
	// tests pin the writer while reads keep flowing.
	WALSlowIO = Point{"wal.slow-io"}
	// CheckpointWrite fails a checkpoint before its file is written, so
	// sealing the epoch fails — the log has not rotated — while the log
	// itself keeps accepting appends. It is hit once per checkpoint, in
	// wal.Log.WriteCheckpoint.
	CheckpointWrite = Point{"wal.checkpoint"}
	// CrashBeforeFsync simulates the process dying after write(2) but
	// before fsync: the record never becomes durable (the partial write is
	// truncated away), the commit fails, and the log is dead until
	// reopened.
	CrashBeforeFsync = Point{"wal.crash-before-fsync"}
	// CrashAfterFsync simulates the process dying just after fsync: the
	// record IS durable and the commit verdict stands — failing it would
	// reject a write that survives recovery — but the log is dead for
	// every append after it.
	CrashAfterFsync = Point{"wal.crash-after-fsync"}
	// StorageApply fails the execution of a ΔR on the base relations — an
	// update's or a replayed record's — before any mutation lands, so the
	// update rejects cleanly and the record is refused.
	StorageApply = Point{"storage.apply"}
)

// catalog is the registered point set, in stable order.
var catalog = []Point{
	WALAppend,
	WALFsync,
	WALDiskFull,
	WALSlowIO,
	CheckpointWrite,
	CrashBeforeFsync,
	CrashAfterFsync,
	StorageApply,
}

// Catalog returns every registered fault point, in stable order.
func Catalog() []Point {
	return append([]Point(nil), catalog...)
}

// Registered reports whether p is a cataloged fault point.
func Registered(p Point) bool {
	for _, c := range catalog {
		if c == p {
			return true
		}
	}
	return false
}

// named returns the catalog point called name, or the zero Point.
func named(name string) Point {
	for _, c := range catalog {
		if c.name == name {
			return c
		}
	}
	return Point{}
}

// ErrInjected is the sentinel every injected failure matches under
// errors.Is. The concrete type is *InjectedError.
var ErrInjected = errors.New("fault: injected failure")

// InjectedError is one fired fault. Seq is the plan-wide firing ordinal
// (1-based), so a failure can be replayed by seed + sequence number.
type InjectedError struct {
	Point Point
	Seq   uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s (firing #%d)", e.Point, e.Seq)
}

// Is matches ErrInjected.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Rule arms one fault point. Zero values mean "fire on every hit once
// eligible": After skips the first hits, Every then fires each Every'th
// eligible hit (default 1), Count caps total firings (0 = unlimited), and
// Prob — when non-zero — replaces Every with a per-hit Bernoulli draw from
// the plan's seeded source. Latency turns the firing into a stall instead
// of an error (the WALSlowIO shape); rules on other points may combine a
// Latency with Err semantics by arming two rules on two points.
type Rule struct {
	Point   Point
	After   int           // eligible only after this many hits
	Every   int           // fire each Every'th eligible hit (default 1)
	Count   int           // stop after this many firings (0 = unlimited)
	Prob    float64       // per-hit firing probability (overrides Every)
	Latency time.Duration // stall instead of failing
}

// ruleState is one armed rule plus its hit/fire counters.
type ruleState struct {
	Rule
	hits  int
	fired int
}

// Plan is an armed fault schedule: deterministic given its seed and the
// hit sequence. Hits may arrive from any goroutine (the WAL sites are
// single-writer, but storage reads are not); the plan locks internally.
type Plan struct {
	mu    sync.Mutex
	rng   *splitmix
	rules map[Point][]*ruleState
	seq   uint64 // total firings, plan-wide
	fires map[Point]uint64
}

// NewPlan arms the rules under one seed. Unknown points are rejected —
// arming a point nothing is instrumented with would silently test nothing.
func NewPlan(seed int64, rules ...Rule) (*Plan, error) {
	p := &Plan{
		rng:   newSplitmix(uint64(seed)),
		rules: make(map[Point][]*ruleState),
		fires: make(map[Point]uint64),
	}
	for _, r := range rules {
		if !Registered(r.Point) {
			return nil, fmt.Errorf("fault: unknown point %q (catalog: %v)", r.Point, catalog)
		}
		if r.Every <= 0 {
			r.Every = 1
		}
		p.rules[r.Point] = append(p.rules[r.Point], &ruleState{Rule: r})
	}
	return p, nil
}

// Fires returns how many times each point has fired under this plan.
func (p *Plan) Fires() map[Point]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Point]uint64, len(p.fires))
	for k, v := range p.fires {
		out[k] = v
	}
	return out
}

// active is the process-wide installed plan; nil means every Hit is a
// single atomic load.
var active atomic.Pointer[Plan]

// Install arms the plan process-wide. Tests must pair it with Uninstall
// (t.Cleanup) and must not run fault-armed tests in parallel.
func Install(p *Plan) { active.Store(p) }

// Uninstall disarms fault injection.
func Uninstall() { active.Store(nil) }

// Active reports whether a plan is installed.
func Active() bool { return active.Load() != nil }

// Hit is the fault point: instrumented sites call it with their catalog
// constant and propagate a non-nil return as the site's failure. Latency
// rules stall and return nil. With no plan installed the cost is one
// atomic pointer load.
//
// xviewlint:hot-path
func Hit(point Point) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(point)
}

func (p *Plan) hit(point Point) error {
	p.mu.Lock()
	rules := p.rules[point]
	var fire *ruleState
	for _, rs := range rules {
		rs.hits++
		if rs.Count > 0 && rs.fired >= rs.Count {
			continue
		}
		if rs.hits <= rs.After {
			continue
		}
		if rs.Prob > 0 {
			if p.rng.float64() >= rs.Prob {
				continue
			}
		} else if (rs.hits-rs.After)%rs.Every != 0 {
			continue
		}
		fire = rs
		break
	}
	if fire == nil {
		p.mu.Unlock()
		return nil
	}
	fire.fired++
	p.seq++
	p.fires[point]++
	seq := p.seq
	latency := fire.Latency
	p.mu.Unlock()

	metrics().fired.Inc()
	if latency > 0 {
		time.Sleep(latency)
		return nil
	}
	return &InjectedError{Point: point, Seq: seq}
}

// splitmix is a tiny deterministic PRNG (splitmix64). The plan cannot use
// math/rand's global source — determinism across plans requires private
// state — and needs nothing fancier than uniform 64-bit draws.
type splitmix struct{ state uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{state: seed} }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 draws uniformly from [0, 1).
func (s *splitmix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// faultMetrics counts firings on the process-wide registry, registered
// lazily like the WAL families so importing this package costs nothing
// until a fault actually fires.
type faultMetrics struct {
	fired *obs.Counter
}

var (
	metOnce sync.Once
	fm      *faultMetrics
)

func metrics() *faultMetrics {
	metOnce.Do(func() {
		fm = &faultMetrics{
			fired: obs.Default().NewCounter("xview_fault_injections_total",
				"Fault-point firings (errors and injected stalls combined)."),
		}
	})
	return fm
}
