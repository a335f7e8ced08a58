package rxview

// White-box tests of the checkpoint path: the one-pass encoder against a
// reference encoder, its allocation bound, its stall metric, what it reads
// back from the previous checkpoint and what it does when that file is
// damaged, and the trigger's interval.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"rxview/internal/ckpt"
	"rxview/internal/core"
	"rxview/internal/obs"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/wal"
)

// encodeCheckpoint is the encoder with no index: every range encoded, as
// at genesis and after a failed checkpoint.
func encodeCheckpoint(sys *core.System) []byte {
	buf, _ := ckpt.Encode(checkpointState(sys), nil)
	return buf
}

// requireSamePayload holds the encoder to the reference
// (testkit.CheckPayload): the header and the DAG state byte for byte, and
// each table as a list of rows — the encoder writes them in slot order, the
// reference sorted, so the two are compared sorted. It returns the encoder's
// payload.
func requireSamePayload(t *testing.T, when string, sys *core.System) []byte {
	t.Helper()
	got := encodeCheckpoint(sys)[wal.CheckpointHeadroom:]
	if err := checkPayload(got, sys); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	return got
}

// checkPayload is testkit.CheckPayload on the state of sys.
func checkPayload(payload []byte, sys *core.System) error {
	sum, _ := sys.Digest()
	fp := sys.ATG.Fingerprint()
	return testkit.CheckPayload(payload, wal.Format, sys.Generation(), sum.Append(nil), fp[:], sys.DB, sys.DAG)
}

// unsortedTables names the tables of a payload that do not list their rows
// in ascending order of their encoding.
func unsortedTables(tb testing.TB, payload []byte) []string {
	tb.Helper()
	ck, err := ckpt.Decode(payload)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, table := range ck.Tables {
		if !slices.IsSortedFunc(table.Rows, func(a, b relational.Tuple) int {
			return bytes.Compare(relational.AppendTuple(nil, a), relational.AppendTuple(nil, b))
		}) {
			out = append(out, table.Name)
		}
	}
	return out
}

// mentions reports whether a row holds one of the keys.
func mentions(row relational.Tuple, keys []int64) bool {
	return slices.ContainsFunc(row, func(v relational.Value) bool {
		return v.K == relational.KindInt && slices.Contains(keys, v.I)
	})
}

// registrarRun is a run of updates on the registrar example that ends by
// inserting into slots its deletions freed.
var registrarRun = []Update{
	Insert(`.`, "course", Str("CS800"), Str("Alpha")),
	Insert(`//course[cno="CS800"]/prereq`, "course", Str("CS801"), Str("Beta")),
	Insert(`//course[cno="CS650"]/takenBy`, "student", Str("S71"), Str("One")),
	Delete(`//course[cno="CS320"]//student[ssn="S02"]`),
	Delete(`//course[cno="CS800"]//course[cno="CS801"]`),
	Insert(`//course[cno="CS320"]/takenBy`, "student", Str("S72"), Str("Two")),
}

// registrarSlotOrderPayload is the payload the encoder writes for the
// registrar example after registrarRun: tables out of order, and a payload a
// restore accepts.
func registrarSlotOrderPayload(tb testing.TB) []byte {
	tb.Helper()
	atg, db := MustRegistrar()
	v, err := Open(atg, db)
	if err != nil {
		tb.Fatal(err)
	}
	v.sys.StartDigest()
	for _, u := range registrarRun {
		if _, err := v.Apply(context.Background(), u); err != nil {
			tb.Fatalf("%v: %v", u, err)
		}
	}
	payload := encodeCheckpoint(v.sys)[wal.CheckpointHeadroom:]
	if len(unsortedTables(tb, payload)) == 0 {
		tb.Fatal("the payload lists every table in order")
	}
	atg, db = MustRegistrar()
	if _, err := restoreSystem(atg, db, core.Options{}, "test", v.Generation(), payload, nil); err != nil {
		tb.Fatalf("the payload does not restore: %v", err)
	}
	return payload
}

// insertFresh inserts a C with each key under the roots in turn, and
// deleteKeys deletes the C of each key.
func insertFresh(tb testing.TB, syn *Synthetic, v *View, keys []int64) {
	tb.Helper()
	roots := syn.Roots()
	for i, k := range keys {
		u := Insert(fmt.Sprintf(`C[key="%d"]/sub`, roots[i%len(roots)]), "C", Int(k), Str(fmt.Sprintf("w%d", i)))
		if _, err := v.Apply(context.Background(), u); err != nil {
			tb.Fatal(err)
		}
	}
}

func deleteKeys(tb testing.TB, v *View, keys []int64) {
	tb.Helper()
	for _, k := range keys {
		if _, err := v.Apply(context.Background(), Delete(fmt.Sprintf(`//C[key="%d"]`, k))); err != nil {
			tb.Fatal(err)
		}
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

// TestEncodeCheckpointMatchesReference: the encoder writes the reference's
// header and DAG state, and the reference's rows in each table, on both
// datasets, before and after a run of insertions and deletions (which leaves
// dead identities in the DAG and deleted slots in the tables). Where insertions refill freed slots the rows are out of order, and the
// payload still restores to the state it was taken from.
func TestEncodeCheckpointMatchesReference(t *testing.T) {
	ctx := context.Background()
	t.Run("synthetic", func(t *testing.T) {
		syn, v := syntheticView(t, 300)
		requireSamePayload(t, "as published", v.sys)
		keys := syn.FreshKeys(24)
		insertFresh(t, syn, v, keys)
		deleteKeys(t, v, keys[:12])
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
		for _, u := range registrarRun {
			if _, err := v.Apply(ctx, u); err != nil {
				t.Fatalf("%v: %v", u, err)
			}
		}
		requireSamePayload(t, "after the run", v.sys)
	})
	t.Run("freed slots refilled", func(t *testing.T) {
		syn, v := syntheticView(t, 300)
		v.sys.StartDigest()
		keys := syn.FreshKeys(36)
		insertFresh(t, syn, v, keys[:24])
		deleteKeys(t, v, keys[:12])
		last := keys[24:]
		insertFresh(t, syn, v, last)
		payload := requireSamePayload(t, "after the run", v.sys)

		// Each table is written in Scan order, and the last batch went into
		// slots the deletions freed: some table lists one of its rows ahead
		// of a row the batch before it left, and out of order.
		ck, err := ckpt.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		unsorted := unsortedTables(t, payload)
		refilled := false
		tupleEqual := func(a, b relational.Tuple) bool { return slices.EqualFunc(a, b, relational.Value.Equal) }
		for _, tb := range ck.Tables {
			var scan []relational.Tuple
			v.sys.DB.Rel(tb.Name).Scan(func(row relational.Tuple) bool {
				scan = append(scan, row)
				return true
			})
			if !slices.EqualFunc(tb.Rows, scan, tupleEqual) {
				t.Fatalf("table %s: the payload's %d rows are not the relation's %d in Scan order", tb.Name, len(tb.Rows), len(scan))
			}
			firstNew := slices.IndexFunc(tb.Rows, func(row relational.Tuple) bool { return mentions(row, last) })
			if firstNew >= 0 && slices.Contains(unsorted, tb.Name) &&
				slices.ContainsFunc(tb.Rows[firstNew+1:], func(row relational.Tuple) bool { return mentions(row, keys[12:24]) }) {
				refilled = true
			}
		}
		if !refilled {
			t.Fatalf("no table lists a row of the last batch ahead of an older one, out of order (out of order: %v): freed slots were not refilled", unsorted)
		}

		fresh, err := NewSynthetic(SyntheticConfig{NC: 300, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := restoreSystem(fresh.ATG, fresh.DB, core.Options{ForceSideEffects: true}, "test", v.sys.Generation(), payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := v.sys.Digest()
		if got, ok := sys.Digest(); !ok || got != want {
			t.Fatalf("restored digest %s, the state it was taken from %s", got, want)
		}
		if err := sys.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEncodeCheckpointAllocationBound pins what the encoder costs the
// writer: about the payload, in a number of objects that depends on the
// number of tables and not on their rows.
//
// The counters are process-wide, so a goroutine another test left behind
// can add its allocations to one reading.
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
		sys, err := restoreSystem(a, db, core.Options{}, "test", 0, state, nil)
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

// encodeObservations is the observation count of the encode-stall
// histogram, read the way a scrape reads it.
func encodeObservations(t *testing.T) uint64 {
	t.Helper()
	for _, f := range obs.Default().Gather() {
		if f.Name == "xview_checkpoint_encode_seconds" {
			return f.Samples[0].Hist.Count
		}
	}
	t.Fatal("xview_checkpoint_encode_seconds is not registered")
	return 0
}

// TestCheckpointEncodeMetric: a checkpoint adds one observation of its
// encode to xview_checkpoint_encode_seconds, and none while telemetry is
// off; and a steady-state checkpoint — a period of insertions and deletions
// after the previous one — reads back at least 90 % of its payload from the
// previous file, as xview_checkpoint_reused_bytes_total counts it.
func TestCheckpointEncodeMetric(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	v, _ := durableRegistrar(t, t.TempDir(), 1<<30) // genesis registers it
	defer v.Close()
	before := encodeObservations(t)
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := encodeObservations(t) - before; n != 1 {
		t.Fatalf("one Checkpoint added %d observations", n)
	}
	obs.SetEnabled(false)
	if err := v.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := encodeObservations(t) - before; n != 1 {
		t.Fatalf("a Checkpoint with telemetry off was observed (%d in all)", n)
	}

	dir := t.TempDir()
	syn, sv := durableSynthetic(t, dir, 2000)
	defer sv.Close()
	keys := syn.FreshKeys(32)
	period := func() {
		insertFresh(t, syn, sv, keys)
		deleteKeys(t, sv, keys)
	}
	period()
	if err := sv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	period()
	reused := ckptReusedBytes().Value()
	if err := sv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reused = ckptReusedBytes().Value() - reused
	payload := landedPayload(t, dir, sv)
	t.Logf("a steady-state checkpoint read back %d of its %d bytes", reused, len(payload))
	if share := float64(reused) / float64(len(payload)); share < 0.9 {
		t.Fatalf("a steady-state checkpoint read back %d of its %d bytes (%.1f %%), want at least 90 %%", reused, len(payload), 100*share)
	}
}

// durableSynthetic opens the §5 view at |C| = nc durably in dir, with no
// automatic checkpoint after genesis.
func durableSynthetic(tb testing.TB, dir string, nc int) (*Synthetic, *View) {
	tb.Helper()
	syn, err := NewSynthetic(SyntheticConfig{NC: nc, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	v, err := Open(syn.ATG, syn.DB, WithForceSideEffects(), WithDurability(dir), WithFsync(FsyncOff), WithCheckpointEvery(1<<30))
	if err != nil {
		tb.Fatal(err)
	}
	return syn, v
}

// landedPayload is the payload of the newest checkpoint in dir, which must
// be the bytes the encoder writes for v's state with no index, and pass the
// reference.
func landedPayload(t *testing.T, dir string, v *View) []byte {
	t.Helper()
	gen, state, _, err := wal.NewestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != v.Generation() {
		t.Fatalf("newest checkpoint at generation %d, the view is at %d", gen, v.Generation())
	}
	if !bytes.Equal(state, encodeCheckpoint(v.sys)[wal.CheckpointHeadroom:]) {
		t.Fatalf("checkpoint %d differs from the encoding with no index", gen)
	}
	if err := checkPayload(state, v.sys); err != nil {
		t.Fatalf("checkpoint %d: %v", gen, err)
	}
	return state
}

// TestCheckpointReadBackDamage: the checkpoint after the previous file was
// damaged — a byte flipped inside a range the encoder reads back, the file
// truncated, deleted, or replaced by another generation's — or after a
// checkpoint that failed, encodes in place what it cannot verify. It reads
// back less than an undamaged run does, its payload is the encoding with no
// index byte for byte, and so are the three checkpoints after it, and the
// directory restores to the view's digest.
func TestCheckpointReadBackDamage(t *testing.T) {
	newest := func(t *testing.T, dir string) string {
		_, _, path, err := wal.NewestCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	// run takes the view through two checkpoints and some churn, damages
	// the newest file, and returns what the next checkpoint read back.
	run := func(t *testing.T, damage func(t *testing.T, v *View, dir string)) int {
		dir := t.TempDir()
		syn, v := durableSynthetic(t, dir, 300)
		keys := syn.FreshKeys(35)
		insertFresh(t, syn, v, keys[:10])
		if err := v.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		insertFresh(t, syn, v, keys[10:20])
		deleteKeys(t, v, keys[:5])
		damage(t, v, dir)
		if err := v.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		landedPayload(t, dir, v)
		reused := v.ckptIx.Reused()
		for i := range 3 {
			insertFresh(t, syn, v, keys[20+5*i:25+5*i])
			deleteKeys(t, v, keys[5+5*i:10+5*i])
			if err := v.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			landedPayload(t, dir, v)
		}
		want, _ := v.sys.Digest()
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSynthetic(SyntheticConfig{NC: 300, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rv, err := Open(fresh.ATG, fresh.DB, WithForceSideEffects(), WithDurability(dir), WithFsync(FsyncOff))
		if err != nil {
			t.Fatal(err)
		}
		defer rv.Close()
		if got, _ := rv.sys.Digest(); got != want {
			t.Fatalf("the directory restores to digest %s, the view had %s", got, want)
		}
		return reused
	}
	control := run(t, func(*testing.T, *View, string) {})
	if control == 0 {
		t.Fatal("the undamaged run read nothing back")
	}
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, v *View, dir string)
		nothing bool // nothing can be read back
	}{
		{name: "a byte flipped in a clean range", damage: func(t *testing.T, v *View, dir string) {
			// The first rows of C: the churn touches the slots past the
			// first range only.
			path := newest(t, dir)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var row []byte
			v.sys.DB.Rel("C").Scan(func(t relational.Tuple) bool {
				row = relational.AppendTuple(nil, t)
				return false
			})
			at := bytes.Index(file, row)
			if at < 0 {
				t.Fatal("no row of C to damage")
			}
			file[at+len(row)-1] ^= 1
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "truncated", damage: func(t *testing.T, v *View, dir string) {
			path := newest(t, dir)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "deleted", nothing: true, damage: func(t *testing.T, v *View, dir string) {
			if err := os.Remove(newest(t, dir)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "another generation's file", damage: func(t *testing.T, v *View, dir string) {
			older, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%020d.xvc", 0)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest(t, dir), older, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "a failed checkpoint", nothing: true, damage: func(t *testing.T, v *View, dir string) {
			if err := EnableChaos("wal.checkpoint:count=1", 1); err != nil {
				t.Fatal(err)
			}
			defer DisableChaos()
			if err := v.Checkpoint(); err == nil {
				t.Fatal("the checkpoint under an armed wal.checkpoint fault succeeded")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused := run(t, tc.damage)
			t.Logf("read back %d bytes, the undamaged run %d", reused, control)
			if tc.nothing && reused != 0 || reused >= control {
				t.Fatalf("read back %d bytes, the undamaged run %d", reused, control)
			}
		})
	}
}

func BenchmarkEncodeCheckpoint(b *testing.B) {
	syn, v := durableSynthetic(b, b.TempDir(), 5000)
	defer v.Close()
	// A period's churn since the genesis checkpoint: what a steady-state
	// checkpoint finds changed.
	keys := syn.FreshKeys(32)
	insertFresh(b, syn, v, keys)
	deleteKeys(b, v, keys[:16])
	state := checkpointState(v.sys)
	for _, bc := range []struct {
		name string
		prev *ckpt.Index
	}{{"full", nil}, {"steady", v.ckptIx}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			var ix *ckpt.Index
			for range b.N {
				buf, ix = ckpt.Encode(state, bc.prev)
			}
			payload := len(buf) - wal.CheckpointHeadroom
			b.ReportMetric(float64(payload), "payload-B")
			b.ReportMetric(100*float64(ix.Reused())/float64(payload), "reused-%")
		})
	}
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

// TestCheckpointEveryNonPositiveMeansDefault: WithCheckpointEvery(n) with
// n ≤ 0 keeps the default interval; a negative n must not wrap around to
// "never".
func TestCheckpointEveryNonPositiveMeansDefault(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt} {
		v, _ := durableRegistrar(t, t.TempDir(), n)
		if v.ckptEvery != defaultCheckpointEvery {
			t.Errorf("WithCheckpointEvery(%d): every %d commits, want %d", n, v.ckptEvery, defaultCheckpointEvery)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
