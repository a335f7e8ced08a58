package rxview

// White-box tests of the checkpoint path: the one-pass encoder against the
// encoder it replaced, its allocation bound, and the write-behind state
// machine — one file in flight, a trigger during it skipped, the
// synchronous callers waiting for it.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rxview/internal/core"
	"rxview/internal/relational"
	"rxview/internal/wal"
)

// encodeCheckpointReference is the encoder this file's subject replaced,
// kept as the reference of the differential test: every tuple encoded twice
// (a string sort key, then AppendTuple), the DAG state in a slice of its own
// and copied in.
func encodeCheckpointReference(sys *core.System) []byte {
	type keyed struct {
		key string
		t   relational.Tuple
	}
	names := sys.DB.Schema.TableNames()
	tables := make([][]keyed, len(names))
	for i, name := range names {
		rel := sys.DB.Rel(name)
		rows := make([]keyed, 0, rel.Len())
		rel.Scan(func(t relational.Tuple) bool {
			rows = append(rows, keyed{t.Encode(), t})
			return true
		})
		slices.SortFunc(rows, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		tables[i] = rows
	}
	dst := []byte{ckptVersion}
	dst = binary.AppendUvarint(dst, sys.Generation())
	sum, _ := sys.Digest()
	dst = sum.Append(dst)
	fp := sys.ATG.Fingerprint()
	dst = append(dst, fp[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for i, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, uint64(len(tables[i])))
		for _, r := range tables[i] {
			dst = relational.AppendTuple(dst, r.t)
		}
	}
	dagState := sys.DAG.AppendState(nil)
	dst = binary.AppendUvarint(dst, uint64(len(dagState)))
	dst = append(dst, dagState...)
	order := sys.Topo.Nodes()
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, id := range order {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func requireSamePayload(t *testing.T, when string, sys *core.System) {
	t.Helper()
	got, want := encodeCheckpoint(sys)[wal.CheckpointHeadroom:], encodeCheckpointReference(sys)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: payload of %d bytes differs from the reference encoder's %d", when, len(got), len(want))
	}
	if _, err := decodeCheckpoint(got); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// syntheticView opens the §5 view at |C| = nc in memory.
func syntheticView(tb testing.TB, nc int) (*Synthetic, *View) {
	tb.Helper()
	syn, err := NewSynthetic(SyntheticConfig{NC: nc, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	v, err := Open(syn.ATG, syn.DB, WithForceSideEffects())
	if err != nil {
		tb.Fatal(err)
	}
	return syn, v
}

// TestEncodeCheckpointMatchesReference: the new encoder writes the bytes the
// old one wrote, on both datasets, before and after a run of insertions and
// deletions (which leaves dead identities in the DAG, deleted slots in the
// tables and tombstones in L).
func TestEncodeCheckpointMatchesReference(t *testing.T) {
	ctx := context.Background()
	t.Run("synthetic", func(t *testing.T) {
		syn, v := syntheticView(t, 300)
		requireSamePayload(t, "as published", v.sys)
		roots := syn.Roots()
		keys := syn.FreshKeys(24)
		for i, k := range keys {
			u := Insert(fmt.Sprintf(`C[key="%d"]/sub`, roots[i%len(roots)]), "C", Int(k), Str(fmt.Sprintf("w%d", i)))
			if _, err := v.Apply(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range keys[:12] {
			if _, err := v.Apply(ctx, Delete(fmt.Sprintf(`//C[key="%d"]`, k))); err != nil {
				t.Fatal(err)
			}
		}
		for _, stmt := range syn.DeleteWorkload(W1, 3, 7) {
			if _, err := v.Execute(ctx, stmt); err != nil && !errors.Is(err, ErrNotUpdatable) {
				t.Fatal(err)
			}
		}
		requireSamePayload(t, "after the run", v.sys)
	})
	t.Run("registrar", func(t *testing.T) {
		atg, db := MustRegistrar()
		v, err := Open(atg, db)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePayload(t, "as published", v.sys)
		for _, u := range []Update{
			Insert(`.`, "course", Str("CS800"), Str("Alpha")),
			Insert(`//course[cno="CS800"]/prereq`, "course", Str("CS801"), Str("Beta")),
			Insert(`//course[cno="CS650"]/takenBy`, "student", Str("S71"), Str("One")),
			Delete(`//course[cno="CS320"]//student[ssn="S02"]`),
			Delete(`//course[cno="CS800"]//course[cno="CS801"]`),
		} {
			if _, err := v.Apply(ctx, u); err != nil {
				t.Fatalf("%v: %v", u, err)
			}
		}
		requireSamePayload(t, "after the run", v.sys)
	})
}

// TestEncodeCheckpointAllocationBound pins what the encoder costs the
// writer: the payload plus an arena the size of one table, in a number of
// objects that depends on the number of tables and not on their rows.
//
// The counters are process-wide, so a goroutine another test left behind
// (a write-behind checkpoint, say) can add its allocations to one reading.
// The encoder costs the same on every call, so each case keeps the least of
// a few readings, taken on one P as testing.AllocsPerRun does.
func TestEncodeCheckpointAllocationBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	measure := func(sys *core.System) (payload int, bytes, objects uint64) {
		bytes, objects = math.MaxUint64, math.MaxUint64
		for range 3 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b0, o0 := ms.TotalAlloc, ms.Mallocs
			buf := encodeCheckpoint(sys)
			runtime.ReadMemStats(&ms)
			if len(buf) != cap(buf) {
				t.Fatalf("buffer of %d bytes has room for %d: not sized up front", len(buf), cap(buf))
			}
			payload = len(buf) - wal.CheckpointHeadroom
			bytes, objects = min(bytes, ms.TotalAlloc-b0), min(objects, ms.Mallocs-o0)
		}
		return payload, bytes, objects
	}
	_, small := syntheticView(t, 200)
	_, large := syntheticView(t, 2000)
	_, _, objSmall := measure(small.sys)
	payload, bytes, objLarge := measure(large.sys)
	if limit := uint64(payload) * 7 / 4; bytes > limit {
		t.Fatalf("encoding a %d-byte payload allocated %d bytes, more than 1.75x", payload, bytes)
	}
	// A few objects of slack: the runtime's own bookkeeping shows up in
	// Mallocs now and then.
	if objLarge > objSmall+4 || objLarge > 24 {
		t.Fatalf("%d objects at |C|=2000 against %d at |C|=200: the count follows the rows", objLarge, objSmall)
	}
}

// TestRestoreAllocationBound pins what a restore costs in objects: it
// allocates per structure — a slab chunk, a map, an index — and not per item,
// so the count stays under a fixed part plus a quarter of an object per row
// and node (every index key and every source key belongs to one of those). The
// registrar, a few dozen items, holds the fixed part down; the |C| = 250
// synthetic image, a few thousand, would go red on one allocation per row,
// per node or per key. Log replay is left out: it costs per record, whatever
// the size of the state.
func TestRestoreAllocationBound(t *testing.T) {
	var ms runtime.MemStats
	measure := func(a *ATG, db *DB, state []byte) (items int, objects uint64) {
		t.Helper()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		o0 := ms.Mallocs
		sys, err := restoreSystem(a, db, core.Options{}, nil, "test", 0, state, nil)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		return sys.DB.TotalRows() + sys.DAG.Cap(), ms.Mallocs - o0
	}
	const fixed = 300
	check := func(name string, items int, objects uint64) {
		t.Helper()
		t.Logf("%s: %d rows and nodes, %d objects", name, items, objects)
		if limit := uint64(fixed + items/4); objects > limit {
			t.Errorf("%s: restoring %d rows and nodes allocated %d objects, more than %d + items/4 = %d",
				name, items, objects, fixed, limit)
		}
	}

	dir := t.TempDir()
	v, _ := durableRegistrar(t, dir, 1<<30)
	_, state, _ := readDurable(t, dir)
	v.log.Close()
	atg, db := MustRegistrar()
	items, objects := measure(atg, db, state)
	check("registrar", items, objects)

	syn, state, _ := syntheticCrashImage(t, 250, 0)
	items, objects = measure(syn.ATG, syn.DB, state)
	check("synthetic |C|=250", items, objects)
	// One object per row, or per node, is about items/2 more: red as long
	// as that exceeds the whole limit's slack, fixed + items/4.
	if items < 4*fixed {
		t.Fatalf("the synthetic image has %d rows and nodes: too few for a per-item allocation to show above the fixed %d", items, fixed)
	}
}

func BenchmarkEncodeCheckpoint(b *testing.B) {
	_, v := syntheticView(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(encodeCheckpoint(v.sys))
	}
	b.ReportMetric(float64(n-wal.CheckpointHeadroom), "payload-B")
}

// durableRegistrar opens the registrar example durably, checkpointing every
// `every` commits, and collects the view's warnings.
func durableRegistrar(t *testing.T, dir string, every int) (*View, *[]string) {
	t.Helper()
	atg, db := MustRegistrar()
	warnings := &[]string{}
	v, err := Open(atg, db, WithDurability(dir), WithCheckpointEvery(every),
		WithRecoveryWarn(func(msg string) { *warnings = append(*warnings, msg) }))
	if err != nil {
		t.Fatal(err)
	}
	return v, warnings
}

func insertStudents(t *testing.T, v *View, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		u := Insert(`//course[cno="CS650"]/takenBy`, "student", Str(fmt.Sprintf("S7%02d", i)), Str("X"))
		if _, err := v.Apply(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
}

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	info, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(info.Segments)
}

// TestCheckpointTriggerSkippedWhileOneIsInFlight: while a checkpoint file is
// being written the trigger is skipped — no encode, no rotation, nothing
// queued — and the first commit after its verdict is in tests again.
func TestCheckpointTriggerSkippedWhileOneIsInFlight(t *testing.T) {
	dir := t.TempDir()
	v, warnings := durableRegistrar(t, dir, 2)
	defer v.Close()

	// A checkpoint at generation 0 that stays in flight as long as the
	// test likes: the state machine only ever sees the channel.
	inFlight := make(chan error, 1)
	v.ckptDone, v.ckptPending = inFlight, 0
	insertStudents(t, v, 0, 5) // two and a half intervals
	if n := segmentCount(t, dir); n != 1 {
		t.Fatalf("%d segments: a checkpoint began while one was in flight", n)
	}
	if v.ckptDone != inFlight || v.ckptGen != 0 {
		t.Fatalf("in-flight checkpoint replaced or collected early (landed %d)", v.ckptGen)
	}

	// It lands. The next commit collects the verdict and, five commits past
	// the newest checkpoint, begins exactly one checkpoint — not one per
	// skipped trigger.
	inFlight <- nil
	insertStudents(t, v, 5, 1)
	v.reapCheckpoint(true)
	if n := segmentCount(t, dir); n != 2 {
		t.Fatalf("%d segments after the verdict, want 2", n)
	}
	if v.ckptGen != 6 || v.ckptDone != nil {
		t.Fatalf("landed checkpoint %d, in flight %v; want 6 and none", v.ckptGen, v.ckptDone != nil)
	}
	if len(*warnings) != 0 {
		t.Fatalf("warnings: %q", *warnings)
	}
}

// TestSynchronousCheckpointsWaitForTheOneInFlight: Checkpoint, Close and
// Recover collect the verdict of the file being written before they do their
// own work. The verdict arrives on an unbuffered channel, so it can only be
// delivered to a caller that waits for it; a failure makes it visible as the
// warning, and leaves ckptGen for the synchronous checkpoint to move.
func TestSynchronousCheckpointsWaitForTheOneInFlight(t *testing.T) {
	for _, call := range []string{"Checkpoint", "Close", "Recover"} {
		t.Run(call, func(t *testing.T) {
			dir := t.TempDir()
			v, warnings := durableRegistrar(t, dir, 1<<30)
			defer v.Close()
			insertStudents(t, v, 0, 3)

			verdict := make(chan error)
			v.ckptDone, v.ckptPending = verdict, 2
			go func() { verdict <- errors.New("disk on fire") }()

			var err error
			switch call {
			case "Checkpoint":
				err = v.Checkpoint()
			case "Close":
				err = v.Close()
			case "Recover":
				v.markDegraded(errors.New("injected"))
				err = v.Recover()
			}
			if err != nil {
				t.Fatalf("%s: %v", call, err)
			}
			if v.ckptDone != nil {
				t.Fatalf("%s returned with a checkpoint still in flight", call)
			}
			reaped := false
			for _, w := range *warnings {
				reaped = reaped || strings.Contains(w, "checkpoint at generation 2 failed: disk on fire")
			}
			if !reaped {
				t.Fatalf("%s did not collect the in-flight verdict; warnings: %q", call, *warnings)
			}
			if v.ckptGen != 3 {
				t.Fatalf("%s left the newest landed checkpoint at %d, want its own at 3", call, v.ckptGen)
			}
			gen, _, _, err := wal.NewestCheckpoint(dir)
			if err != nil || gen != 3 {
				t.Fatalf("newest checkpoint on disk: %d, %v", gen, err)
			}
		})
	}
}
