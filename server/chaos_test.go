package server_test

// Engine-level resilience tests: the chaos soak under concurrent wait-free
// readers (degradation healed by the recovery prober, verdict ledger
// checked against the recovered state), overload shedding while the writer
// is stalled by injected slow I/O, and deadline expiry for requests
// sitting in the apply queue. Fault injection is process-wide, so nothing
// here runs in parallel.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rxview"
	"rxview/server"
)

func resIns(cno string) rxview.Update {
	return rxview.Insert(`.`, "course", rxview.Str(cno), rxview.Str("Resilience"))
}

func mustDurableEngine(t *testing.T, dir string, opts ...server.Option) (*server.Engine, *rxview.View) {
	t.Helper()
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	view, err := rxview.Open(atg, db, rxview.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	return server.New(view, opts...), view
}

// waitReadWrite blocks until the recovery prober has restored read-write
// mode, or fails the test.
func waitReadWrite(t *testing.T, eng *server.Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("engine still degraded after 5s; recovery prober did not heal it")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineChaosSoak drives a faulted write workload through the engine
// while concurrent readers assert wait-free, generation-monotone serving
// the whole way through — across three separate degradations, each healed
// by the background prober (on export_test.go's short backoff). The
// per-write ledger is then checked against the reopened directory:
// acknowledged writes present, rejections absent.
func TestEngineChaosSoak(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, view := mustDurableEngine(t, dir)
	defer rxview.DisableChaos()

	spec := strings.Join([]string{
		"wal.append:after=5,count=1",
		"wal.fsync:after=11,count=1",
		"wal.disk-full:after=17,count=1",
		"wal.slow-io:latency=1ms,every=6,count=3",
	}, ";")
	if err := rxview.EnableChaos(spec, 21); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerErr := make(chan error, 4)
	var readers sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Query(ctx, `//course`)
				if err != nil {
					readerErr <- err
					return
				}
				if res.Generation < lastGen {
					readerErr <- fmt.Errorf("generation went backwards: %d after %d", res.Generation, lastGen)
					return
				}
				lastGen = res.Generation
				reads.Add(1)
			}
		}()
	}

	var acked, rejected []string
	for i := 0; i < 40; i++ {
		cno := fmt.Sprintf("CE%03d", i)
		rep, err := eng.Update(ctx, resIns(cno))
		var de *rxview.DegradedError
		switch {
		case err == nil:
			acked = append(acked, cno)
		case errors.As(err, &de) && de.Applied:
			// Indeterminate: in memory but not durable. The prober's
			// recovery checkpoints the in-memory state, so post-recovery
			// this write is expected in the durable record.
			acked = append(acked, cno)
		default:
			if rep != nil && rep.Applied {
				t.Fatalf("write %s: rejected (%v) but report says applied", cno, err)
			}
			rejected = append(rejected, cno)
		}
		if errors.Is(err, rxview.ErrDegraded) {
			waitReadWrite(t, eng)
		}
	}
	close(stop)
	readers.Wait()
	select {
	case err := <-readerErr:
		t.Fatalf("reader: %v", err)
	default:
	}

	waitReadWrite(t, eng)
	if _, err := eng.Update(ctx, resIns("CEFIN")); err != nil {
		t.Fatalf("post-soak write: %v", err)
	}
	acked = append(acked, "CEFIN")

	st := eng.Stats()
	if st.Degraded {
		t.Fatal("engine ends degraded")
	}
	if st.Recoveries == 0 {
		t.Fatal("no recoveries recorded: the fault schedule never degraded the engine")
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress during the soak")
	}
	t.Logf("soak: %d acked, %d rejected, %d reads, %d recoveries",
		len(acked), len(rejected), reads.Load(), st.Recoveries)

	rxview.DisableChaos()
	eng.Close()
	if err := view.Close(); err != nil {
		t.Fatalf("view close: %v", err)
	}

	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := rxview.Open(atg, db, rxview.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if err := v2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, cno := range acked {
		nodes, err := v2.Query(ctx, fmt.Sprintf(`//course[cno=%q]`, cno))
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != 1 {
			t.Fatalf("acknowledged write %s: %d matches after recovery, want 1", cno, len(nodes))
		}
	}
	for _, cno := range rejected {
		nodes, err := v2.Query(ctx, fmt.Sprintf(`//course[cno=%q]`, cno))
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != 0 {
			t.Fatalf("rejected write %s present after recovery", cno)
		}
	}
}

// TestOverloadShedsWhileReadsFlow stalls the apply loop with injected slow
// I/O and floods the queue: excess writes must shed with ErrOverloaded
// carrying a Retry-After estimate, admitted writes must complete within
// the watermark-bounded queue wait, and reads must keep serving the
// published generation throughout.
func TestOverloadShedsWhileReadsFlow(t *testing.T) {
	ctx := context.Background()
	eng, view := mustDurableEngine(t, t.TempDir(),
		server.WithQueueDepth(4), server.WithShedWatermark(3))
	defer rxview.DisableChaos()
	defer view.Close()
	defer eng.Close()

	if err := rxview.EnableChaos("wal.slow-io:latency=40ms,every=1", 3); err != nil {
		t.Fatal(err)
	}
	genBefore := eng.Generation()

	const writers = 12
	var (
		wg             sync.WaitGroup
		applied, shed  atomic.Int64
		retryAfterSeen atomic.Bool
		slowestWrite   atomic.Int64
	)
	writeErr := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			_, err := eng.Update(ctx, resIns(fmt.Sprintf("OV%03d", i)))
			d := time.Since(t0)
			for {
				old := slowestWrite.Load()
				if int64(d) <= old || slowestWrite.CompareAndSwap(old, int64(d)) {
					break
				}
			}
			switch {
			case err == nil:
				applied.Add(1)
			case errors.Is(err, server.ErrOverloaded):
				shed.Add(1)
				var oe *server.OverloadedError
				if errors.As(err, &oe) && oe.RetryAfter > 0 {
					retryAfterSeen.Store(true)
				}
			default:
				writeErr <- err
			}
		}(i)
	}

	// Reads while the writer is pinned: wait-free, at a published
	// generation that never regresses below the pre-flood one.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var readCount int
readLoop:
	for {
		res, err := eng.Query(ctx, `//course`)
		if err != nil {
			t.Fatalf("read during overload: %v", err)
		}
		if res.Generation < genBefore {
			t.Fatalf("read at generation %d, below pre-flood %d", res.Generation, genBefore)
		}
		readCount++
		select {
		case <-done:
			break readLoop
		case <-time.After(2 * time.Millisecond):
		}
	}
	select {
	case err := <-writeErr:
		t.Fatalf("writer: %v", err)
	default:
	}

	if applied.Load() == 0 {
		t.Fatal("no writes applied under overload")
	}
	if shed.Load() == 0 {
		t.Fatal("no writes shed: the watermark never engaged")
	}
	if !retryAfterSeen.Load() {
		t.Fatal("no shed verdict carried a Retry-After estimate")
	}
	if got := eng.Stats().WritesShed; got != uint64(shed.Load()) {
		t.Fatalf("Stats.WritesShed = %d, want %d", got, shed.Load())
	}
	if readCount == 0 {
		t.Fatal("no reads completed during overload")
	}
	// Bounded queue wait: an admitted write sits behind at most the
	// watermark's worth of 40ms appends; far below this generous bound,
	// and crucially not unbounded.
	if d := time.Duration(slowestWrite.Load()); d > 2*time.Second {
		t.Fatalf("slowest write verdict took %v; queue wait is not bounded", d)
	}
	if got, want := eng.Generation(), genBefore+uint64(applied.Load()); got != want {
		t.Fatalf("final generation %d, want %d (pre-flood %d + %d applied)", got, want, genBefore, applied.Load())
	}
}

// TestQueuedDeadlineExpiry pins the apply loop and enqueues an update, a
// batch and an atomic group whose deadlines expire while they sit in the
// queue: each must be skipped with context.DeadlineExceeded, a "canceled
// while queued" verdict, and guaranteed-unapplied reports.
func TestQueuedDeadlineExpiry(t *testing.T) {
	ctx := context.Background()
	eng, view := mustDurableEngine(t, t.TempDir())
	defer rxview.DisableChaos()
	defer view.Close()
	defer eng.Close()

	if err := rxview.EnableChaos("wal.slow-io:latency=60ms,every=1", 5); err != nil {
		t.Fatal(err)
	}

	// The pin: a deadline-free write the loop picks up immediately and
	// stalls on for 60ms.
	pinDone := make(chan error, 1)
	go func() {
		_, err := eng.Update(ctx, resIns("QD000"))
		pinDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // the pin is in flight, the queue is empty

	type verdict struct {
		kind string
		reps []*rxview.Report
		err  error
	}
	verdicts := make(chan verdict, 3)
	short := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(ctx, 20*time.Millisecond)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		c, cancel := short()
		defer cancel()
		rep, err := eng.Update(c, resIns("QD001"))
		verdicts <- verdict{"update", []*rxview.Report{rep}, err}
	}()
	go func() {
		defer wg.Done()
		c, cancel := short()
		defer cancel()
		reps, err := eng.Batch(c, resIns("QD002"), resIns("QD003"))
		verdicts <- verdict{"batch", reps, err}
	}()
	go func() {
		defer wg.Done()
		c, cancel := short()
		defer cancel()
		reps, err := eng.Tx(c, resIns("QD004"), resIns("QD005"))
		verdicts <- verdict{"tx", reps, err}
	}()
	wg.Wait()
	close(verdicts)

	if err := <-pinDone; err != nil {
		t.Fatalf("pin write: %v", err)
	}
	for v := range verdicts {
		if !errors.Is(v.err, context.DeadlineExceeded) {
			t.Fatalf("%s: got %v, want DeadlineExceeded", v.kind, v.err)
		}
		if !strings.Contains(v.err.Error(), "canceled while queued") {
			t.Fatalf("%s: error %q does not state the queued skip", v.kind, v.err)
		}
		if len(v.reps) == 0 {
			t.Fatalf("%s: no reports for skipped request", v.kind)
		}
		for _, rep := range v.reps {
			if rep == nil || rep.Applied {
				t.Fatalf("%s: skipped request report %+v, want guaranteed-unapplied", v.kind, rep)
			}
		}
	}

	// The skipped writes must not have reached the view.
	rxview.DisableChaos()
	for _, cno := range []string{"QD001", "QD002", "QD003", "QD004", "QD005"} {
		res, err := eng.Query(ctx, fmt.Sprintf(`//course[cno=%q]`, cno))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) != 0 {
			t.Fatalf("expired write %s reached the view", cno)
		}
	}
	res, err := eng.Query(ctx, `//course[cno="QD000"]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("pin write: %d matches, want 1", len(res.Nodes))
	}
}
