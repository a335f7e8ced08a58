package rxview

// White-box tests of what a restore verifies since the state digest: damage
// that every checksum passes over — a payload or a record altered and then
// re-framed by the log's own writer, its digest zeroed included — is refused
// by the digest, at the generation it belongs to, with nothing touched; a
// directory opened under another ATG is refused by its fingerprint, one
// written in another format by every reader; and no restore runs the full
// consistency check.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rxview/internal/atg"
	"rxview/internal/ckpt"
	"rxview/internal/core"
	"rxview/internal/digest"
	"rxview/internal/obs"
	"rxview/internal/relational"
	"rxview/internal/testkit"
	"rxview/internal/wal"
	"rxview/internal/workload"
)

// readDurable reads what a recovery of dir would start from.
func readDurable(t testing.TB, dir string) (gen uint64, state []byte, recs []wal.Record) {
	t.Helper()
	gen, state, _, err := wal.NewestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := wal.ScanFrom(dir, gen, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range framed {
		recs = append(recs, f.Record)
	}
	return gen, state, recs
}

// writeDurable writes a checkpoint payload and the records after it into a
// fresh directory through the log's own writer, so every frame and every
// checksum in it is valid whatever the contents say. It returns the
// directory and the records' frames as a follower would receive them.
func writeDurable(t *testing.T, gen uint64, state []byte, recs []wal.Record) (dir string, frames [][]byte) {
	t.Helper()
	dir = t.TempDir()
	l, boot, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil || boot != nil {
		t.Fatalf("fresh log: %v, boot state %v", err, boot)
	}
	if err := l.WriteCheckpoint(gen, append(make([]byte, wal.CheckpointHeadroom), state...)); err != nil {
		t.Fatal(err)
	}
	if len(recs) > 0 {
		if err := l.Append(recs); err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			frames = append(frames, bytes.Clone(l.Frame(i)))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, frames
}

// registrarImage runs n student insertions against a durable registrar view
// that never checkpoints past its genesis, and returns what its directory
// holds: checkpoint 0 and n records.
func registrarImage(t *testing.T, n int) (state []byte, recs []wal.Record) {
	t.Helper()
	v, _ := durableRegistrar(t, t.TempDir(), 1<<30)
	insertStudents(t, v, 0, n)
	_, state, recs = readDurable(t, v.log.Dir())
	if len(recs) != n {
		t.Fatalf("the image holds %d records, want %d", len(recs), n)
	}
	v.log.Close() // no final checkpoint: the image is what a crash leaves
	return state, recs
}

func dbShape(db *DB) string { return fmt.Sprint(db.Tables()) }

// wantDigestRefusal asserts the error of a restore the digest refused: the
// mismatch taxonomy, both digests in the text, and — when gen is set — the
// generation it stopped at.
func wantDigestRefusal(t *testing.T, what string, err error, gen string) {
	t.Helper()
	var mm *digest.MismatchError
	if !errors.Is(err, ErrCheckpointMismatch) || !errors.As(err, &mm) {
		t.Fatalf("%s: %v, want ErrCheckpointMismatch around a digest mismatch", what, err)
	}
	for _, part := range []string{mm.Want.String(), mm.Got.String(), gen} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("%s: %q does not name %q", what, err, part)
		}
	}
	if errors.Is(err, ErrCorruptLog) {
		t.Fatalf("%s: %v also matches ErrCorruptLog", what, err)
	}
}

// TestBitFlipBehindValidChecksumRefused: one bit of a checkpoint payload —
// inside a base tuple, then inside the DAG state — is flipped, or its digest
// zeroed, and the payload written back through the log's writer, so its CRC is
// good. Open and Replica.Restore refuse it by the digest, before they touch
// anything: the caller's database keeps its rows and the replica its previous
// state.
func TestBitFlipBehindValidChecksumRefused(t *testing.T) {
	state, _ := registrarImage(t, 0)
	// "Advanced Topics" is CS650's title: once in the course table, and
	// after it in the DAG state's attribute tuples.
	inTuple := bytes.Index(state, []byte("Advanced Topics"))
	inDAG := bytes.LastIndex(state, []byte("Advanced Topics"))
	ck, _, err := ckpt.DecodeHeader(state)
	if err != nil {
		t.Fatal(err)
	}
	inDigest := bytes.Index(state, ck.Digest.Append(nil))
	if inTuple < 0 || inDAG <= inTuple || inDigest < 0 {
		t.Fatalf("payload layout: title at %d and %d, digest at %d", inTuple, inDAG, inDigest)
	}
	damage := map[string]func([]byte){
		"a base tuple":      func(b []byte) { b[inTuple] ^= 1 },
		"the DAG state":     func(b []byte) { b[inDAG] ^= 1 },
		"the digest zeroed": func(b []byte) { clear(b[inDigest : inDigest+digest.Size]) },
	}
	for name, apply := range damage {
		t.Run(name, func(t *testing.T) {
			bad := bytes.Clone(state)
			apply(bad)
			dir, _ := writeDurable(t, 0, bad, nil)

			atg, db := MustRegistrar()
			seeded := dbShape(db)
			_, err := Open(atg, db, WithDurability(dir))
			wantDigestRefusal(t, "Open", err, "generation 0")
			if got := dbShape(db); got != seeded {
				t.Fatalf("the refused Open left the database at %s, was %s", got, seeded)
			}

			ratg, rdb := MustRegistrar()
			rep, err := OpenReplica(ratg, rdb)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Restore(0, state); err != nil {
				t.Fatalf("restoring the intact payload: %v", err)
			}
			before, sumBefore := mustXML(t, rep.View()), mustDigest(t, rep.View())
			seeded = dbShape(rdb)
			wantDigestRefusal(t, "Replica.Restore", rep.Restore(0, bad), "generation 0")
			if got := mustXML(t, rep.View()); got != before || mustDigest(t, rep.View()) != sumBefore || dbShape(rdb) != seeded {
				t.Fatal("the refused Restore changed the replica")
			}
			if err := rep.View().CheckConsistency(); err != nil {
				t.Fatalf("replica after the refused Restore: %v", err)
			}
		})
	}
}

func mustXML(t *testing.T, v *View) string {
	t.Helper()
	xml, err := v.XML(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return xml
}

func mustDigest(t *testing.T, v *View) Digest {
	t.Helper()
	d, ok := v.Digest()
	if !ok {
		t.Fatal("the view keeps no digest")
	}
	return d
}

// TestWrongReplayStopsAtItsGeneration: the third of five logged records
// loses one delta op — and, separately, one ΔR mutation — and is re-framed
// with a valid CRC. It still replays without an error of its own, into a
// state the primary never had. Boot recovery and a follower's ApplyRecord
// both stop at exactly generation 3, with both digests in the error. So do
// they at a record whose replay is right but whose digest is zeroed: zero is
// no stamp that waves a replay through.
func TestWrongReplayStopsAtItsGeneration(t *testing.T) {
	state, recs := registrarImage(t, 5)
	damage := map[string]func(*wal.Record){
		"one delta op dropped": func(r *wal.Record) { r.Delta = r.Delta[:len(r.Delta)-1] },
		"one mutation dropped": func(r *wal.Record) { r.DR = r.DR[:len(r.DR)-1] },
		"the digest zeroed":    func(r *wal.Record) { r.Digest = digest.Sum{} },
	}
	for name, drop := range damage {
		t.Run(name, func(t *testing.T) {
			bad := append([]wal.Record(nil), recs...)
			drop(&bad[2])
			dir, frames := writeDurable(t, 0, state, bad)

			atg, db := MustRegistrar()
			seeded := dbShape(db)
			_, err := Open(atg, db, WithDurability(dir))
			wantDigestRefusal(t, "Open", err, "generation 3")
			if got := dbShape(db); got != seeded {
				t.Fatalf("the refused Open left the database at %s, was %s", got, seeded)
			}

			ratg, rdb := MustRegistrar()
			rep, err := OpenReplica(ratg, rdb)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Restore(0, state); err != nil {
				t.Fatal(err)
			}
			fr := NewReplFrameReader(bytes.NewReader(bytes.Join(frames, nil)))
			for gen := uint64(1); ; gen++ {
				rec, err := fr.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", gen, err)
				}
				err = rep.ApplyRecord(rec)
				if gen < 3 {
					if err != nil || rep.Generation() != gen {
						t.Fatalf("record %d: %v, generation %d", gen, err, rep.Generation())
					}
					continue
				}
				wantDigestRefusal(t, "ApplyRecord", err, "generation 3")
				if rep.Generation() != 2 {
					t.Fatalf("the refused record moved the replica to generation %d", rep.Generation())
				}
				break
			}
			// The follower's way out is the one it has for a gap: a restore.
			if err := rep.Restore(0, state); err != nil {
				t.Fatal(err)
			}
			if err := rep.View().CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForeignFormatRefusedByEveryReader: a checkpoint payload and a record
// that state another format than wal.Format, each whole and behind a valid
// checksum, as a newer build would write them. Open refuses the directory —
// the record is the last one of the last segment, where a torn tail would be
// cut off, and the file keeps every byte — a follower's stream reader refuses
// the frame, and Replica.Restore the payload; each error names both formats.
func TestForeignFormatRefusedByEveryReader(t *testing.T) {
	const foreign = wal.Format + 1
	names := []string{fmt.Sprintf("format %d", foreign), fmt.Sprintf("format %d", wal.Format)}
	wantNamed := func(what string, err error, sentinel error) {
		t.Helper()
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: %v, want %v", what, err, sentinel)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("%s: %q does not name %q", what, err, name)
			}
		}
	}

	state, recs := registrarImage(t, 2)
	dir, frames := writeDurable(t, 0, state, recs)
	last := frames[len(frames)-1]
	seg := filepath.Join(dir, fmt.Sprintf("wal-%020d.xvl", 0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bad := reframe(last, foreign)
	copy(b[len(b)-len(last):], bad)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	atg, db := MustRegistrar()
	_, err = Open(atg, db, WithDurability(dir))
	wantNamed("Open", err, ErrCorruptLog)
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, b) {
		t.Fatalf("the refused Open left the segment at %d bytes (%v), was %d", len(after), err, len(b))
	}

	_, err = NewReplFrameReader(bytes.NewReader(bad)).Next()
	wantNamed("ReplFrameReader.Next", err, wal.ErrCorrupt)

	rep, err := OpenReplica(MustRegistrar())
	if err != nil {
		t.Fatal(err)
	}
	newer := bytes.Clone(state)
	newer[0] = foreign
	wantNamed("Replica.Restore", rep.Restore(0, newer), ErrCorruptLog)
}

// reframe is frame — one record as the log frames it: uvarint length, CRC-32C,
// payload — with the payload's format byte set to format and the checksum
// recomputed, so that only the format is wrong.
func reframe(frame []byte, format byte) []byte {
	out := bytes.Clone(frame)
	_, n := binary.Uvarint(out)
	payload := out[n+4:]
	payload[0] = format
	binary.BigEndian.PutUint32(out[n:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// fullChecks reads the process-wide count of full consistency checks. The
// pipeline's families register at the first commit or check of the process,
// so an absent family is a count of zero.
func fullChecks() float64 {
	for _, f := range obs.Default().Gather() {
		if f.Name == "xview_consistency_checks_total" {
			return f.Samples[0].Value
		}
	}
	return 0
}

// lastRecovery reads the xview_recovery_last_* gauges; ok is false while the
// process has restored nothing.
func lastRecovery() (seconds, records float64, ok bool) {
	for _, f := range obs.Default().Gather() {
		switch f.Name {
		case "xview_recovery_last_seconds":
			seconds, ok = f.Samples[0].Value, true
		case "xview_recovery_last_records":
			records = f.Samples[0].Value
		}
	}
	return seconds, records, ok
}

// TestRecoveryGauges: every restore that succeeds — a boot recovery, a
// follower's Restore — leaves its duration and the records it replayed in the
// gauges, and one that is refused leaves them alone.
func TestRecoveryGauges(t *testing.T) {
	v, dir, _, _ := openImage(t, "wal-format3") // ckpt-6 and the record of generation 7
	defer v.Close()
	secs, recs, ok := lastRecovery()
	if !ok || secs <= 0 || secs > 60 || recs != 1 {
		t.Fatalf("after a boot recovery: %v s, %v records (registered: %v), want a duration and 1 record", secs, recs, ok)
	}

	_, state, _ := readDurable(t, dir)
	ratg, rdb := MustRegistrar()
	rep, err := OpenReplica(ratg, rdb)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Restore(5, state); err == nil { // the payload is for generation 6
		t.Fatal("a restore under the wrong generation was accepted")
	}
	if s, r, _ := lastRecovery(); s != secs || r != 1 {
		t.Fatalf("a refused restore moved the gauges to %v s, %v records", s, r)
	}
	if err := rep.Restore(6, state); err != nil {
		t.Fatal(err)
	}
	if s, r, _ := lastRecovery(); s <= 0 || r != 0 {
		t.Fatalf("after a follower's restore: %v s, %v records, want a duration and no record", s, r)
	}
}

// openImage opens a copy of a committed durability directory, collecting the
// recovery warnings and counting the full consistency checks the Open ran.
func openImage(t *testing.T, name string) (v *View, dir string, warnings []string, checks float64) {
	t.Helper()
	dir = t.TempDir()
	ents, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join("testdata", name, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	atg, db := MustRegistrar()
	before := fullChecks()
	v, err = Open(atg, db, WithDurability(dir), WithRecoveryWarn(func(msg string) { warnings = append(warnings, msg) }))
	if err != nil {
		t.Fatal(err)
	}
	return v, dir, warnings, fullChecks() - before
}

// TestOpensDirectoryWrittenWithDigests: testdata/wal-format3 is what this
// on-disk format writes (registrar example, a checkpoint every 2 commits, each
// file landed before the next commit, the seven updates below, no Close):
// checkpoints 4 and 6, records 5 to 7. An unintended change to the encoding
// turns this test red; an intended one bumps wal.Format and regenerates the
// image. It opens without a warning and without republishing anything, at the
// state — and the digest — an in-memory view reaches by the same seven
// updates.
func TestOpensDirectoryWrittenWithDigests(t *testing.T) {
	ctx := context.Background()
	v, dir, warnings, checks := openImage(t, "wal-format3")
	defer v.Close()
	if len(warnings) != 0 || checks != 0 {
		t.Fatalf("warnings %q, %v full consistency checks: the restore was not verified by digest alone", warnings, checks)
	}
	info, err := InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	atgFP := v.sys.ATG.Fingerprint().String()
	records := 0
	for _, c := range info.Checkpoints {
		if c.Err != "" || len(c.Digest) != 32 || c.ATG != atgFP {
			t.Errorf("checkpoint %d: digest %s, ATG %s, err %q", c.Gen, c.Digest, c.ATG, c.Err)
		}
	}
	for _, s := range info.Segments {
		for _, r := range s.Records {
			records++
			if len(r.Digest) != 32 {
				t.Errorf("record %d lists digest %s", r.Gen, r.Digest)
			}
		}
	}
	if fmt.Sprint(len(info.Checkpoints), records) != "2 3" {
		t.Fatalf("the committed image holds %d checkpoints and %d records", len(info.Checkpoints), records)
	}

	atg, db := MustRegistrar()
	oracle, err := Open(atg, db)
	if err != nil {
		t.Fatal(err)
	}
	insertStudents(t, oracle, 0, 5)
	for _, u := range []Update{
		Delete(`//course[cno="CS320"]//student[ssn="S02"]`),
		Insert(`.`, "course", Str("CS800"), Str("Alpha")),
	} {
		if _, err := oracle.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := mustXML(t, v), mustXML(t, oracle); got != want || v.Generation() != 7 {
		t.Fatalf("state recovered from the image, at generation %d, differs:\n%s\nvs\n%s", v.Generation(), got, want)
	}
	if _, ok := oracle.Digest(); ok {
		t.Fatal("an in-memory view keeps a digest")
	}
	if got, want := mustDigest(t, v), digest.Of(oracle.sys.DAG, oracle.sys.DB); got != want {
		t.Fatalf("recovered digest %s, the oracle's state digests to %s", got, want)
	}
	if err := v.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	insertStudents(t, v, 5, 1)
}

// TestOpenUnderAnotherATGRefused: a directory written under the registrar
// ATG is reopened under one whose takenBy rule was changed. The republish of
// the old restore caught this by accident; now the fingerprint in the
// checkpoint does, naming both, before the database is touched.
func TestOpenUnderAnotherATGRefused(t *testing.T) {
	dir := t.TempDir()
	v, _ := durableRegistrar(t, dir, 1<<30)
	insertStudents(t, v, 0, 2)
	written := v.sys.ATG.Fingerprint().String()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	other, db := registrarVariant(t)
	if other.c.Fingerprint().String() == written {
		t.Fatal("the changed rule left the ATG fingerprint unchanged")
	}
	seeded := dbShape(db)
	_, err := Open(other, db, WithDurability(dir))
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("Open under another ATG: %v, want ErrCheckpointMismatch", err)
	}
	for _, fp := range []string{written, other.c.Fingerprint().String()} {
		if !strings.Contains(err.Error(), fp) {
			t.Fatalf("%q does not name fingerprint %s", err, fp)
		}
	}
	if got := dbShape(db); got != seeded {
		t.Fatalf("the refused Open left the database at %s, was %s", got, seeded)
	}
	det, err := InspectCheckpoint(dir)
	if err != nil || det.ATG != written || det.Version != wal.Format {
		t.Fatalf("InspectCheckpoint: %+v, %v; want version %d under ATG %s", det, err, wal.Format, written)
	}
}

// TestDigestFollowsADegradedPrefixGroup: a prefix group whose append the log
// refused stays applied in memory (DegradedError{Applied: true}), so the
// digest has moved over its stages although no record carries it; Recover's
// checkpoint stamps that digest, and the next open verifies against it.
func TestDigestFollowsADegradedPrefixGroup(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v, _ := durableRegistrar(t, dir, 1<<30)
	defer DisableChaos()
	start := mustDigest(t, v)
	tx, err := v.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	for _, ssn := range []string{"S801", "S802"} {
		u := Insert(`//course[cno="CS650"]/takenBy`, "student", Str(ssn), Str("X"))
		if rep, err := tx.Stage(ctx, u); err != nil || !rep.Applied {
			t.Fatalf("stage %s: %v", ssn, err)
		}
	}
	if err := EnableChaos("wal.append:count=1", 1); err != nil {
		t.Fatal(err)
	}
	var de *DegradedError
	if err := tx.Commit(ctx); !errors.As(err, &de) || !de.Applied {
		t.Fatalf("commit over a refused append: %v", err)
	}
	DisableChaos()
	sum := mustDigest(t, v)
	if want := digest.Of(v.sys.DAG, v.sys.DB); sum != want || sum == start {
		t.Fatalf("digest %s after the refused group (was %s), a full pass says %s", sum, start, want)
	}
	if err := v.Recover(); err != nil {
		t.Fatal(err)
	}
	det, err := InspectCheckpoint(dir)
	if err != nil || det.Gen != 2 || det.Digest != sum.String() {
		t.Fatalf("Recover's checkpoint: %+v, %v; want generation 2 stamped %s", det, err, sum)
	}
	if err := v.log.Close(); err != nil {
		t.Fatal(err)
	}
	atg, db := MustRegistrar()
	v2, err := Open(atg, db, WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if got := mustDigest(t, v2); got != sum || v2.Generation() != 2 {
		t.Fatalf("reopened at generation %d with digest %s, want 2 and %s", v2.Generation(), got, sum)
	}
}

// registrarVariant is the registrar example with one rule changed: the root
// publishes the EE courses instead of the CS ones.
func registrarVariant(t *testing.T) (*ATG, *DB) {
	t.Helper()
	reg := testkit.Must(workload.NewRegistrar())
	g := *reg.ATG.ATG
	q := *g.Rules["db"]["course"].Query
	q.Where = []relational.EqPred{{Left: relational.Col(0, 2), Right: relational.Const(relational.Str("EE"))}}
	g.Rules = maps.Clone(g.Rules)
	g.Rules["db"] = map[string]*atg.Rule{"course": {Parent: "db", Child: "course", Query: &q}}
	c, err := atg.Compile(&g)
	if err != nil {
		t.Fatal(err)
	}
	return &ATG{c: c}, &DB{db: reg.DB}
}

// FuzzDecodeCheckpoint drives the three decoders of a checkpoint payload —
// ckpt.Decode, dag.DecodeState, the digest pass — and everything else a
// restore does to bytes this process did not write, seeded with the
// checkpoints of the committed image. Nothing panics; what is refused is
// refused as ErrCorruptLog or ErrCheckpointMismatch with the database left
// alone; and whatever is accepted is a consistent view (a payload the fuzzer
// altered must still match its digest). The target touches no file. Besides
// the committed image it is seeded with a payload whose tables list their rows
// out of order, written after a run that refilled freed slots, and with that
// payload in a foreign format and with its digest zeroed.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, gen := range []uint64{4, 6} {
		state, err := wal.ReadCheckpoint(filepath.Join("testdata", "wal-format3", fmt.Sprintf("ckpt-%020d.xvc", gen)), gen)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state)
	}
	slotOrder := registrarSlotOrderPayload(f)
	f.Add(slotOrder)
	foreign := bytes.Clone(slotOrder)
	foreign[0] = wal.Format + 1
	f.Add(foreign)
	ck, _, err := ckpt.DecodeHeader(slotOrder)
	if err != nil {
		f.Fatal(err)
	}
	at := bytes.Index(slotOrder, ck.Digest.Append(nil))
	f.Add(slices.Concat(slotOrder[:at], make([]byte, digest.Size), slotOrder[at+digest.Size:]))
	atg, db := MustRegistrar()
	f.Fuzz(func(t *testing.T, state []byte) {
		var gen uint64
		if ck, _, err := ckpt.DecodeHeader(state); err == nil {
			gen = ck.Gen
		}
		before := dbShape(db)
		sys, err := restoreSystem(atg, db, core.Options{}, "fuzz", gen, state, nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptLog) && !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("refused outside the taxonomy: %v", err)
			}
			if got := dbShape(db); got != before {
				t.Fatalf("a refused payload left the database at %s, was %s", got, before)
			}
			return
		}
		if err := sys.CheckConsistency(); err != nil {
			t.Fatalf("an accepted payload serves an inconsistent view: %v", err)
		}
	})
}

// syntheticCrashImage is the benchmark's restart image at |C| = nc: the
// genesis checkpoint of a durable §5 view and the records of n fresh-key
// insertions after it, read back the way a recovery would.
func syntheticCrashImage(tb testing.TB, nc, n int) (syn *Synthetic, state []byte, recs []wal.Record) {
	tb.Helper()
	syn, err := NewSynthetic(SyntheticConfig{NC: nc, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	v, err := Open(syn.ATG, syn.DB, WithForceSideEffects(), WithDurability(dir), WithFsync(FsyncOff), WithCheckpointEvery(1<<30))
	if err != nil {
		tb.Fatal(err)
	}
	roots := syn.Roots()
	for i, k := range syn.FreshKeys(n) {
		u := Insert(fmt.Sprintf(`C[key="%d"]/sub`, roots[i%len(roots)]), "C", Int(k), Str(fmt.Sprintf("w%d", i)))
		if rep, err := v.Apply(context.Background(), u); err != nil || !rep.Applied {
			tb.Fatalf("insert %d: %v", i, err)
		}
	}
	gen, state, recs := readDurable(tb, dir)
	if gen != 0 || len(recs) != n {
		tb.Fatalf("image: checkpoint %d, %d records", gen, len(recs))
	}
	v.log.Close()
	return syn, state, recs
}

// BenchmarkStateDigest is the full pass — what a restore pays to hold a
// checkpoint payload to its digest, and a genesis to stamp its first — at the
// restart workload's size, |C| = 7500.
func BenchmarkStateDigest(b *testing.B) {
	_, v := syntheticView(b, 7500)
	st := v.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	var sum digest.Sum
	for i := 0; i < b.N; i++ {
		sum = digest.Of(v.sys.DAG, v.sys.DB)
	}
	if sum.IsZero() {
		b.Fatal("no digest")
	}
	b.ReportMetric(float64(st.Nodes+st.Edges+v.DB().TotalRows()), "items")
}

// BenchmarkRestore is a reopen without its file I/O, at the restart
// workload's shape: decode the |C| = 7500 checkpoint payload, load it, hold
// it to its digest, replay 48 records comparing after each.
func BenchmarkRestore(b *testing.B) {
	syn, state, recs := syntheticCrashImage(b, 7500, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := restoreSystem(syn.ATG, syn.DB, core.Options{ForceSideEffects: true}, "bench", 0, state, recs)
		if err != nil || sys.Generation() != 48 {
			b.Fatal(err)
		}
	}
}
