package rxview

// White-box tests of the checkpoint path: the one-pass encoder against a
// reference encoder, its allocation bound, its stall metric, and the
// trigger's interval.

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
	"rxview/internal/obs"
	"rxview/internal/relational"
	"rxview/internal/wal"
)

// encodeCheckpointReference is the reference of the differential test: the
// payload in its three parts — the header; the tables, each one's rows in
// ascending order of their encoding; the DAG state and L — built the plain
// way, every tuple encoded twice (a string sort key, then AppendTuple) and
// the DAG state in a slice of its own, copied in.
func encodeCheckpointReference(sys *core.System) (head, tables, tail []byte) {
	head = []byte{wal.Format}
	head = binary.AppendUvarint(head, sys.Generation())
	sum, _ := sys.Digest()
	head = sum.Append(head)
	fp := sys.ATG.Fingerprint()
	head = append(head, fp[:]...)

	type keyed struct {
		key string
		t   relational.Tuple
	}
	names := sys.DB.Schema.TableNames()
	tables = binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		rel := sys.DB.Rel(name)
		rows := make([]keyed, 0, rel.Len())
		rel.Scan(func(t relational.Tuple) bool {
			rows = append(rows, keyed{t.Encode(), t})
			return true
		})
		slices.SortFunc(rows, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		tables = binary.AppendUvarint(tables, uint64(len(name)))
		tables = append(tables, name...)
		tables = binary.AppendUvarint(tables, uint64(len(rows)))
		for _, r := range rows {
			tables = relational.AppendTuple(tables, r.t)
		}
	}

	dagState := sys.DAG.AppendState(nil)
	tail = binary.AppendUvarint(nil, uint64(len(dagState)))
	tail = append(tail, dagState...)
	order := sys.Topo.Nodes()
	tail = binary.AppendUvarint(tail, uint64(len(order)))
	for _, id := range order {
		tail = binary.AppendUvarint(tail, uint64(id))
	}
	return head, tables, tail
}

// requireSamePayload holds the encoder to the reference: the header, the
// DAG state and L byte for byte, and each table as a list of rows — the
// encoder writes them in slot order, the reference sorted, so the two are
// compared sorted. It returns the encoder's payload.
func requireSamePayload(t *testing.T, when string, sys *core.System) []byte {
	t.Helper()
	got := encodeCheckpoint(sys)[wal.CheckpointHeadroom:]
	head, tables, tail := encodeCheckpointReference(sys)
	if want := len(head) + len(tables) + len(tail); len(got) != want {
		t.Fatalf("%s: payload of %d bytes, the reference's has %d", when, len(got), want)
	}
	if !bytes.HasPrefix(got, head) {
		t.Fatalf("%s: header differs from the reference's", when)
	}
	if !bytes.HasSuffix(got, tail) {
		t.Fatalf("%s: DAG state or L differs from the reference's", when)
	}
	gotCk, err := decodeCheckpoint(got)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	wantCk, err := decodeCheckpoint(slices.Concat(head, tables, tail))
	if err != nil {
		t.Fatalf("%s: the reference: %v", when, err)
	}
	if len(gotCk.tables) != len(wantCk.tables) {
		t.Fatalf("%s: %d tables, the reference has %d", when, len(gotCk.tables), len(wantCk.tables))
	}
	for i, tb := range gotCk.tables {
		want := wantCk.tables[i]
		if g, w := sortedRows(tb.rows), sortedRows(want.rows); tb.name != want.name || !slices.Equal(g, w) {
			t.Fatalf("%s: table %s holds %d rows %v, the reference's %s holds %d %v",
				when, tb.name, len(g), g, want.name, len(w), w)
		}
	}
	return got
}

// sortedRows is the encodings of rows, sorted.
func sortedRows(rows []relational.Tuple) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = string(relational.AppendTuple(nil, row))
	}
	slices.Sort(out)
	return out
}

// unsortedTables names the tables of a payload that do not list their rows
// in ascending order of their encoding.
func unsortedTables(tb testing.TB, payload []byte) []string {
	tb.Helper()
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, table := range ck.tables {
		if !slices.IsSortedFunc(table.rows, func(a, b relational.Tuple) int {
			return bytes.Compare(relational.AppendTuple(nil, a), relational.AppendTuple(nil, b))
		}) {
			out = append(out, table.name)
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
// header, DAG state and L, and the reference's rows in each table, on both
// datasets, before and after a run of insertions and deletions (which leaves
// dead identities in the DAG, deleted slots in the tables and tombstones in
// L). Where insertions refill freed slots the rows are out of order, and the
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
		ck, err := decodeCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		unsorted := unsortedTables(t, payload)
		refilled := false
		tupleEqual := func(a, b relational.Tuple) bool { return slices.EqualFunc(a, b, relational.Value.Equal) }
		for _, tb := range ck.tables {
			var scan []relational.Tuple
			v.sys.DB.Rel(tb.name).Scan(func(row relational.Tuple) bool {
				scan = append(scan, row)
				return true
			})
			if !slices.EqualFunc(tb.rows, scan, tupleEqual) {
				t.Fatalf("table %s: the payload's %d rows are not the relation's %d in Scan order", tb.name, len(tb.rows), len(scan))
			}
			firstNew := slices.IndexFunc(tb.rows, func(row relational.Tuple) bool { return mentions(row, last) })
			if firstNew >= 0 && slices.Contains(unsorted, tb.name) &&
				slices.ContainsFunc(tb.rows[firstNew+1:], func(row relational.Tuple) bool { return mentions(row, keys[12:24]) }) {
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
// off.
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
