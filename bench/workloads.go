package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rxview"
)

// workload is one traffic mix. Every workload is a fixed, seed-determined
// operation sequence cut into segments of whole periods; a period returns
// the view to its base state, so segments are exchangeable.
type workload struct {
	name      string
	why       string
	nc        int
	durable   bool
	ckptEvery int
	segment   func(r *runner) (prepare func() error, seg func(i int, traced bool) segment)
}

var workloads = []workload{
	{
		name: "read-hot", nc: 5000,
		why:     "Hot-set queries, all memo hits: HTTP decode/encode and the memo lookup do all the work, XPath, translation and the WAL none.",
		segment: readHot,
	},
	{
		name: "read-write", nc: 5000, durable: true,
		why:     "Zipf hot-set reads with one async write per 400 ops: each commit empties the memo, so re-evaluation on the read path is most of the wall time.",
		segment: readWrite,
	},
	{
		name: "write-heavy", nc: 5000, durable: true, ckptEvery: writePeriod,
		why:     "Only updates, a checkpoint every 64: write-path XPath, translation, L/M maintenance, WAL fsync and the checkpoint stall do the work, the memo none.",
		segment: writeHeavy,
	},
	{
		name: "restart", nc: 7500, durable: true,
		why:     "Reopen a crash image (checkpoint restore, 48-record replay, consistency check) to first answer: the durability code read back, not written.",
		segment: restart,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hotPath is one member of the hot set with its answer at the base state.
type hotPath struct {
	path  string
	body  []byte
	count int
	root  int64 // the root key a //C[key=…]/sub/C path hangs off, else 0
}

const (
	hotRoots  = 48
	hotValues = 16
	// minSegments keeps the estimators meaningful when the time budget is
	// shorter than a handful of segments.
	minSegments = 3
)

// runner carries one run of one workload.
type runner struct {
	w        workload
	seed     int64
	seconds  time.Duration
	segments int // > 0 fixes the segment count and ignores seconds
	setups   int
	tr       *tracer
	pr       *probe // the reference probe (probe.go)
	dir      string // this run's scratch directory

	in  *instance
	c   *client
	hot []hotPath

	setup      time.Duration // median of the set-ups, as measured
	segs       []segment
	est        estimates       // what the run reports: the segments at reference speed
	raw        estimates       // the same estimators over the times as measured
	writeLat   []time.Duration // latencies of the writes, as their client saw them
	attempted  int
	failed     int
	opHash     uint64
	respBytes  int64 // response bytes read on the measuring connection
	measured   time.Duration
	steal      time.Duration
	live       float64
	quiesce    func()            // stops what the workload left running before live_mb is read
	finalCheck func() error      // end-of-run correctness check; a failure is a failed operation
	layers     map[string]metric // per-layer metrics of a traced run

	// corrupt, set by tests only, is added to what the oracle expects in
	// the measured phase: every answer then reads as wrong.
	corrupt   int
	measuring bool
}

func (r *runner) corruptCount() int {
	if r.measuring {
		return r.corrupt
	}
	return 0
}

// note folds one operation into the op-sequence hash (FNV-1a over the
// operations' identifying numbers).
func (r *runner) note(v uint64) {
	if r.opHash == 0 {
		r.opHash = 14695981039346656037
	}
	r.opHash = (r.opHash ^ v) * 1099511628211
}

// fail counts a failed operation: a non-200, a wrong answer or a failed
// check. A failed operation contributes no latency sample.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: failed operation: %s\n", r.w.name, fmt.Sprintf(format, args...))
	}
}

// segRand is the generator of segment i: the sequence of a segment depends
// on the seed and the segment's index only, not on how many segments the
// time budget admits.
func (r *runner) segRand(i int) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + int64(i)))
}

// buildHotSet fixes the hot set — hotRoots × //C[key="<root>"]/sub/C and
// hotValues × //C[val="v<i>"], three root paths to one value path — and
// records each path's answer at the base state as the oracle.
func (r *runner) buildHotSet() error {
	roots := r.in.syn.Roots()
	if len(roots) == 0 {
		return fmt.Errorf("the synthetic dataset has no roots")
	}
	if len(roots) > hotRoots {
		roots = roots[:hotRoots]
	}
	sn := r.in.eng.Snapshot()
	ri, vi := 0, 0
	for ri < len(roots) || vi < hotValues {
		var h hotPath
		if vi < hotValues && (ri >= len(roots) || len(r.hot)%4 == 3) {
			h.path = fmt.Sprintf(`//C[val="v%d"]`, vi)
			vi++
		} else {
			h.root = roots[ri]
			h.path = fmt.Sprintf(`//C[key="%d"]/sub/C`, h.root)
			ri++
		}
		nodes, err := sn.Query(context.Background(), h.path)
		if err != nil {
			return fmt.Errorf("oracle for %s: %w", h.path, err)
		}
		h.count, h.body = len(nodes), queryBody(h.path)
		r.hot = append(r.hot, h)
	}
	return nil
}

// run performs set-up, the measured phase and the end-of-run checks.
func (r *runner) run() error {
	cfg := buildConfig{nc: r.w.nc, ckptEvery: r.w.ckptEvery}
	if r.w.durable {
		cfg.dir = filepath.Join(r.dir, "wal")
	}
	var err error
	if r.pr, err = newProbe(); err != nil {
		return err
	}
	defer r.pr.close()
	r.in, r.setup, err = setUp(cfg, r.setups, queryBody(`//C[val="v0"]`), r.tr)
	if err != nil {
		return err
	}
	defer func() {
		if r.in != nil {
			_ = r.in.close()
		}
	}()
	if err := r.buildHotSet(); err != nil {
		return err
	}
	r.c = newClient(r.in.url, &r.respBytes)
	prepare, seg := r.w.segment(r)
	if err := prepare(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d failed operations", r.failed)
	}
	r.attempted, r.respBytes, r.writeLat = 0, 0, nil
	r.pr.cut() // the warm-up's samples

	var before phaseCounters
	if r.tr.on {
		before = r.readCounters()
	}
	r.measuring = true
	steal0, start := procStatSteal(), time.Now()
	for i := 0; ; i++ {
		if r.segments > 0 {
			if i >= r.segments {
				break
			}
		} else if i >= minSegments && time.Since(start) >= r.seconds {
			break
		}
		r.pr.sample()
		s := seg(i, r.tr.on && i%2 == 1)
		s.slow = r.pr.cut()
		r.segs = append(r.segs, s)
	}
	r.measured, r.steal = time.Since(start), procStatSteal()-steal0
	if r.pr.err != nil {
		return r.pr.err
	}
	r.est, r.raw = estimate(atReference(r.segs)), estimate(r.segs)
	if r.tr.on {
		r.layers = map[string]metric{}
		r.phaseLayers(before, r.readCounters())
	}

	if r.quiesce != nil {
		r.quiesce()
	}
	r.c.closeIdle()
	r.live = liveMB()
	if r.finalCheck != nil {
		r.attempted++
		if err := r.finalCheck(); err != nil {
			r.fail("end-of-run check: %v", err)
		}
	}
	if !r.tr.on {
		return nil
	}
	// The layer probes build their own view; this one has done its work.
	if in := r.in; in != nil {
		r.in = nil
		if err := in.close(); err != nil {
			return err
		}
	}
	runtime.GC()
	if err := r.tour(); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	return nil
}

// timedQuery is one measured /query: a root span in traced segments, and
// the latency the client saw.
func (r *runner) timedQuery(h *hotPath, traced bool) (gen uint64, count int, d time.Duration, err error) {
	r.attempted++
	sp := r.span(traced, "http POST /query", r.tr.request(), -1)
	t0 := time.Now()
	gen, count, err = r.c.query(h.body)
	d = time.Since(t0)
	r.tr.end(sp)
	return gen, count, d, err
}

// readHot: uniform draws from the hot set, 100 % memo hits after warm-up.
func readHot(r *runner) (func() error, func(int, bool) segment) {
	const perSegment = 10000
	gen0 := r.in.eng.Generation()
	op := func(k int, traced bool) (time.Duration, bool) {
		h := &r.hot[k]
		gen, count, d, err := r.timedQuery(h, traced)
		switch {
		case err != nil:
			r.fail("%v", err)
		case gen != gen0:
			r.fail("%s: generation moved from %d to %d", h.path, gen0, gen)
		case count != h.count+r.corruptCount():
			r.fail("%s: count %d, oracle %d", h.path, count, h.count+r.corruptCount())
		default:
			return d, true
		}
		return 0, false
	}
	prepare := func() error {
		for k := range r.hot {
			op(k, false)
		}
		rng := r.segRand(-1)
		for j := 0; j < 2000; j++ {
			op(rng.Intn(len(r.hot)), false)
		}
		return nil
	}
	seg := func(i int, traced bool) segment {
		rng := r.segRand(i)
		s := segment{traced: traced, lat: make([]time.Duration, 0, perSegment)}
		t0, probed := time.Now(), r.pr.spent
		for j := 0; j < perSegment; j++ {
			k := rng.Intn(len(r.hot))
			r.note(uint64(k))
			if d, ok := op(k, traced); ok {
				s.lat = append(s.lat, d)
			}
			r.pr.tick()
		}
		s.dur, s.ops = time.Since(t0)-(r.pr.spent-probed), perSegment
		return s
	}
	return prepare, seg
}

// readWrite: periods of 399 Zipf(1.2) hot-set reads and one write, the
// write fired on a second connection by the reader's 400th operation and
// left to run while the reader goes on. Writes alternate between inserting
// one fresh key under a hot root and deleting it, so two periods return
// the view to its base state.
func readWrite(r *runner) (func() error, func(int, bool) segment) {
	const (
		period            = 400
		periodsPerSegment = 4
	)
	key := r.in.syn.FreshKeys(1)[0]
	del := deleteBody(fmt.Sprintf(`//C[key="%d"]`, key))
	var rootIdx []int // hot-set indexes of the root paths
	for k, h := range r.hot {
		if h.root != 0 {
			rootIdx = append(rootIdx, k)
		}
	}
	wc := newClient(r.in.url, nil)

	// bump[g] is the hot-set index whose count is one above base at
	// generation g, or −1. Generation g is the state after the g-th write
	// since Open, so the oracle needs no clock.
	bump := []int{-1}
	type written struct {
		gen     uint64
		applied bool
		err     error
		d       time.Duration
	}
	var pending chan written
	join := func() {
		if pending == nil {
			return
		}
		w := <-pending
		pending = nil
		want := uint64(len(bump) - 1)
		switch {
		case w.err != nil:
			r.fail("async write: %v", w.err)
		case !w.applied:
			r.fail("async write to generation %d not applied", want)
		case w.gen != want:
			r.fail("async write: generation %d, expected %d", w.gen, want)
		default:
			r.writeLat = append(r.writeLat, w.d)
		}
	}
	fire := func(rng *rand.Rand) {
		join() // closed loop on the write connection as well
		r.attempted++
		var body []byte
		if last := bump[len(bump)-1]; last >= 0 {
			body = del
			bump = append(bump, -1)
			r.note(1 << 32)
		} else {
			k := rootIdx[rng.Intn(len(rootIdx))]
			body = insertBody(fmt.Sprintf(`//C[key="%d"]/sub`, r.hot[k].root), key, "w")
			bump = append(bump, k)
			r.note(1<<33 | uint64(k))
		}
		pending = make(chan written, 1)
		go func(done chan<- written) {
			t0 := time.Now()
			gen, applied, err := wc.update(body)
			done <- written{gen, applied, err, time.Since(t0)}
		}(pending)
	}
	var lastGen uint64
	read := func(k int, traced bool) (time.Duration, bool) {
		h := &r.hot[k]
		gen, count, d, err := r.timedQuery(h, traced)
		if err != nil {
			r.fail("%v", err)
			return 0, false
		}
		if gen < lastGen || gen >= uint64(len(bump)) {
			r.fail("%s: generation %d after %d with %d writes fired", h.path, gen, lastGen, len(bump)-1)
			return 0, false
		}
		lastGen = gen
		want := h.count + r.corruptCount()
		if bump[gen] == k {
			want++
		}
		if count != want {
			r.fail("%s at generation %d: count %d, oracle %d", h.path, gen, count, want)
			return 0, false
		}
		return d, true
	}
	periods := func(i, n int, traced bool, s *segment) {
		rng := r.segRand(i)
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(r.hot)-1))
		for p := 0; p < n; p++ {
			for j := 0; j < period-1; j++ {
				k := int(zipf.Uint64())
				r.note(uint64(k))
				if d, ok := read(k, traced); ok && s != nil {
					s.lat = append(s.lat, d)
				}
				// No sample while the write is in flight: it would share
				// the P with the writer, and the writer would get on
				// with its work in time the segment leaves out.
				if pending == nil || len(pending) == 1 {
					r.pr.tick()
				}
			}
			fire(rng)
		}
	}
	prepare := func() error {
		periods(-1, 2, false, nil)
		return nil
	}
	seg := func(i int, traced bool) segment {
		s := segment{traced: traced, lat: make([]time.Duration, 0, periodsPerSegment*period)}
		t0, probed := time.Now(), r.pr.spent
		periods(i, periodsPerSegment, traced, &s)
		s.dur, s.ops = time.Since(t0)-(r.pr.spent-probed), periodsPerSegment*period
		return s
	}
	r.quiesce = func() {
		join()
		wc.closeIdle()
	}
	r.finalCheck = func() error {
		if n := len(bump) - 1; n%2 != 0 {
			return fmt.Errorf("%d writes fired: the view is not back at its base state", n)
		}
		return nil
	}
	return prepare, seg
}

// writePeriod is the length of one write-heavy period and its checkpoint
// interval: every period sees exactly one inline checkpoint, on the same
// operation.
const writePeriod = 64

// writeOp is one update of a write-heavy period, in wire and in API form.
type writeOp struct {
	body   []byte
	update rxview.Update
	id     uint64
}

const (
	rootedInserts = 20
	valueInserts  = 12
)

// writeScript holds the 64 updates of a write-heavy period: 20 rooted
// inserts C[key="r"]/sub, 12 value-selected inserts //C[val="v"]/sub, and
// the 32 deletes //C[key="k"] of the keys they insert. Every period issues
// the same 64 updates; the seed decides the order of the inserts and the
// order of the deletes. A key always goes to the same target: the minimal
// relational deletion of a key inserted under many parents removes its CU
// row and leaves the H rows behind, so the key can come back only where it
// was.
type writeScript struct {
	inserts, deletes []writeOp
}

// newWriteScript fixes the script for a served view. The values are rare
// ones, from a fifth into the value range, so a value-selected insert
// reaches tens of nodes and not hundreds; values that select nothing at
// this scale are skipped.
func newWriteScript(in *instance) (*writeScript, error) {
	roots := in.syn.Roots()
	card := in.cfg.nc / 50 // the generator's default number of distinct values
	if card < 10 {
		card = 10
	}
	var values []string
	sn := in.eng.Snapshot()
	for i := 0; i < card && len(values) < valueInserts; i++ {
		v := fmt.Sprintf("v%d", (card/5+i)%card)
		nodes, err := sn.Query(context.Background(), fmt.Sprintf(`//C[val="%s"]`, v))
		if err != nil {
			return nil, err
		}
		if len(nodes) > 0 {
			values = append(values, v)
		}
	}
	if len(values) == 0 || len(roots) == 0 {
		return nil, fmt.Errorf("dataset too small for a write script: %d roots, %d usable values", len(roots), len(values))
	}
	ws := &writeScript{}
	for i, key := range in.syn.FreshKeys(rootedInserts + valueInserts) {
		path := fmt.Sprintf(`C[key="%d"]/sub`, roots[i%len(roots)])
		if i >= rootedInserts {
			path = fmt.Sprintf(`//C[val="%s"]/sub`, values[(i-rootedInserts)%len(values)])
		}
		val, del := fmt.Sprintf("w%d", i), fmt.Sprintf(`//C[key="%d"]`, key)
		ws.inserts = append(ws.inserts, writeOp{
			body:   insertBody(path, key, val),
			update: rxview.Insert(path, "C", rxview.Int(key), rxview.Str(val)),
			id:     1<<40 | uint64(i),
		})
		ws.deletes = append(ws.deletes, writeOp{body: deleteBody(del), update: rxview.Delete(del), id: 1<<41 | uint64(i)})
	}
	return ws, nil
}

// period is the script in the order rng gives it.
func (ws *writeScript) period(rng *rand.Rand) []writeOp {
	ops := make([]writeOp, 0, writePeriod)
	for _, i := range rng.Perm(len(ws.inserts)) {
		ops = append(ops, ws.inserts[i])
	}
	for _, i := range rng.Perm(len(ws.deletes)) {
		ops = append(ops, ws.deletes[i])
	}
	return ops
}

// writeHeavy: one period of 64 updates per segment, one checkpoint in each.
func writeHeavy(r *runner) (func() error, func(int, bool) segment) {
	var ws *writeScript
	var baseNodes int
	var gen uint64
	period := func(i int, traced bool, s *segment) {
		for _, op := range ws.period(r.segRand(i)) {
			r.attempted++
			r.note(op.id)
			gen++
			sp := r.span(traced, "http POST /update", r.tr.request(), -1)
			t0 := time.Now()
			got, applied, err := r.c.update(op.body)
			d := time.Since(t0)
			r.tr.end(sp)
			switch {
			case err != nil:
				r.fail("%v", err)
			case !applied:
				r.fail("update to generation %d not applied", gen)
			case got != gen:
				r.fail("update: generation %d, expected %d", got, gen)
			default:
				if s != nil {
					s.lat = append(s.lat, d)
					r.writeLat = append(r.writeLat, d)
				}
			}
			r.pr.tick()
		}
	}
	backAtBase := func() {
		r.attempted++
		st, err := r.c.stats()
		if err != nil {
			r.fail("/stats: %v", err)
		} else if st.View.Nodes != baseNodes+r.corruptCount() {
			r.fail("/stats: %d nodes after a whole period, base state has %d", st.View.Nodes, baseNodes+r.corruptCount())
		}
	}
	prepare := func() error {
		var err error
		if ws, err = newWriteScript(r.in); err != nil {
			return err
		}
		baseNodes, gen = r.in.eng.Snapshot().Stats().Nodes, r.in.eng.Generation()
		period(-1, false, nil)
		return nil
	}
	seg := func(i int, traced bool) segment {
		s := segment{traced: traced, lat: make([]time.Duration, 0, writePeriod)}
		t0, probed := time.Now(), r.pr.spent
		period(i, traced, &s)
		s.dur, s.ops = time.Since(t0)-(r.pr.spent-probed), writePeriod
		backAtBase()
		return s
	}
	r.finalCheck = func() error {
		// The paper's invariant ΔX(T) = σ(ΔR(I)), on the view every update
		// of the run went through. The engine must be gone first: a View
		// is single-writer.
		in := r.in
		r.in = nil
		if err := in.stopServing(); err != nil {
			return err
		}
		err := in.view.CheckConsistency()
		if cerr := in.view.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return prepare, seg
}

// crashImage is what the restart workload reopens: a byte copy of a live
// WAL directory, and what the view answered when the copy was taken.
type crashImage struct {
	dir    string
	syn    *rxview.Synthetic // supplies the schema; Open replaces its contents
	gen    uint64
	first  []byte    // the query whose answer ends the timed region
	probes []hotPath // answers at the crash state
}

const imageRecords = 48

// restart: each operation copies the crash image, reopens it — checkpoint
// restore, replay of the 48 records past it, CheckConsistency — serves it
// and gets the first query answered. The reopened view is shut down, and
// collected, before the next operation starts, outside the timed region.
func restart(r *runner) (func() error, func(int, bool) segment) {
	const opsPerSegment = 3
	img := &crashImage{dir: filepath.Join(r.dir, "image"), first: queryBody(`//C[val="v0"]`)}
	prepare := func() error {
		// Bring the served view to generation 48, note what it answers, and
		// copy its WAL directory while it is still open: only bytes the log
		// has flushed are in the copy.
		roots := r.in.syn.Roots()
		for i, key := range r.in.syn.FreshKeys(imageRecords) {
			body := insertBody(fmt.Sprintf(`C[key="%d"]/sub`, roots[i%len(roots)]), key, fmt.Sprintf("w%d", i))
			gen, applied, err := r.c.update(body)
			if err != nil || !applied || gen != uint64(i+1) {
				return fmt.Errorf("image insert %d: generation %d, applied %v: %v", i, gen, applied, err)
			}
		}
		for k := 0; k < len(r.hot); k += (len(r.hot) + 7) / 8 {
			p := r.hot[k]
			_, count, err := r.c.query(p.body)
			if err != nil {
				return err
			}
			p.count = count
			img.probes = append(img.probes, p)
		}
		if err := copyDir(r.in.cfg.dir, img.dir); err != nil {
			return fmt.Errorf("copying the crash image: %w", err)
		}
		records, err := walRecords(img.dir)
		if err != nil {
			return err
		}
		if records != imageRecords {
			return fmt.Errorf("the crash image holds %d records past its checkpoint, want %d", records, imageRecords)
		}
		img.syn, img.gen = r.in.syn, imageRecords
		r.reopen(img, false)
		return nil
	}
	seg := func(i int, traced bool) segment {
		s := segment{traced: traced}
		for j := 0; j < opsPerSegment; j++ {
			r.note(uint64(i*opsPerSegment + j))
			r.pr.around()
			d, ok := r.reopen(img, traced)
			r.pr.around()
			if ok {
				s.lat = append(s.lat, d)
				s.dur += d
			}
		}
		s.ops = len(s.lat)
		return s
	}
	return prepare, seg
}

// reopen is one restart operation. It replaces r.in: the instance served
// before is closed and collected first, untimed, and the reopened one stays
// up until the next operation, so live_mb sees a served view.
func (r *runner) reopen(img *crashImage, traced bool) (time.Duration, bool) {
	r.attempted++
	if in := r.in; in != nil {
		r.in = nil
		r.c.closeIdle()
		if err := in.close(); err != nil {
			r.fail("closing the previous view: %v", err)
			return 0, false
		}
	}
	cfg := buildConfig{nc: r.w.nc, dir: filepath.Join(r.dir, "reopen")}
	if err := os.RemoveAll(cfg.dir); err != nil {
		r.fail("%v", err)
		return 0, false
	}
	runtime.GC()

	req := r.tr.request()
	root := r.span(traced, "restart", req, -1)
	t0 := time.Now()
	sp := r.span(traced, "copy image", req, root)
	err := copyDir(img.dir, cfg.dir)
	r.tr.end(sp)
	if err != nil {
		r.fail("copying the crash image: %v", err)
		return 0, false
	}
	sp = r.span(traced, "durability.recover", req, root)
	view, err := rxview.Open(img.syn.ATG, img.syn.DB, viewOptions(cfg)...)
	r.tr.end(sp)
	if err != nil {
		r.fail("reopening the crash image: %v", err)
		return 0, false
	}
	if r.in, err = serve(cfg, img.syn, view); err != nil {
		r.fail("%v", err)
		return 0, false
	}
	r.c = newClient(r.in.url, &r.respBytes)
	sp = r.span(traced, "http POST /query", req, root)
	gen, _, err := r.c.query(img.first)
	r.tr.end(sp)
	d := time.Since(t0)
	r.tr.end(root)

	if err != nil {
		r.fail("first query: %v", err)
		return 0, false
	}
	if want := img.gen + uint64(r.corruptCount()); gen != want {
		r.fail("recovered generation %d, the image was taken at %d", gen, want)
		return 0, false
	}
	for _, p := range img.probes {
		if _, count, err := r.c.query(p.body); err != nil || count != p.count {
			r.fail("%s after recovery: count %d (%v), %d before the crash", p.path, count, err, p.count)
			return 0, false
		}
	}
	return d, true
}

// span opens a span only in traced segments.
func (r *runner) span(traced bool, name string, req, parent int) int {
	if !traced {
		return -1
	}
	return r.tr.start(name, req, parent)
}
