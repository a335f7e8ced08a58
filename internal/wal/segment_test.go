package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseSegment drives the one segment parser, and the rule its three
// readers apply to the verdict, with arbitrary bytes; it touches no file, so
// an execution costs microseconds. The committed corpus is the two segments of
// testdata/wal-format3 (digest-wal-*) and truncated, bit-flipped,
// garbage-extended and misnamed copies of them: the digest that ends a record
// torn, flipped, or cut by one byte or whole behind a valid checksum, and one
// whole record in a foreign format; and the two segments an earlier build
// wrote before records stated their format (parent-wal-*), which this one
// refuses as damage.
// stopClean is the zero stop: the bytes end on a frame boundary.
const stopClean stop = 0

func FuzzParseSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, gen uint64) {
		p := parseSegment(b, gen)
		if p.good < 0 || p.good > len(b) || (p.stop == stopClean) != (p.why == "") {
			t.Fatalf("good=%d of %d bytes, stop=%d, why=%q", p.good, len(b), p.stop, p.why)
		}
		if p.stop == stopClean && p.good != len(b) {
			t.Fatalf("clean stop at %d of %d bytes", p.good, len(b))
		}

		// The good prefix is a segment of its own, holding the same records.
		region := len(b) // where the record region starts; none if the header is not good
		if p.good > 0 {
			q := parseSegment(b[:p.good], gen)
			if q.stop != stopClean || q.good != p.good || !reflect.DeepEqual(q.recs, p.recs) {
				t.Fatalf("reparse of the good prefix: stop=%d good=%d (%q), %d records; had good=%d, %d records",
					q.stop, q.good, q.why, len(q.recs), p.good, len(p.recs))
			}
			region = p.good
			for _, r := range p.recs {
				region -= len(r.Frame)
			}
		} else if len(p.recs) != 0 {
			t.Fatalf("%d records and no good prefix", len(p.recs))
		}

		// Every span is one whole frame around the record it came back with.
		for i, r := range p.recs {
			payload, rest, res := readFrame(r.Frame)
			if res != frameOK || len(rest) != 0 {
				t.Fatalf("record %d: its span reads as result %d with %d bytes left over", i, res, len(rest))
			}
			if got, err := decodeRecord(payload); err != nil || !reflect.DeepEqual(got, r.Record) {
				t.Fatalf("record %d: its span decodes to %+v (%v), parse returned %+v", i, got, err, r.Record)
			}
		}

		// The wire reader sees the record region the way the parser does: the
		// same records, then a clean end exactly where the parse ended clean.
		fr := NewFrameReader(bytes.NewReader(b[region:]))
		for i, r := range p.recs {
			if got, err := fr.Next(); err != nil || !reflect.DeepEqual(got, r.Record) {
				t.Fatalf("FrameReader record %d: %+v (%v), parse returned %+v", i, got, err, r.Record)
			}
		}
		if p.good > 0 {
			if _, err := fr.Next(); err == nil || errors.Is(err, io.EOF) != (p.stop == stopClean) {
				t.Fatalf("FrameReader after %d records: %v; parse stopped with %d (%s)", len(p.recs), err, p.stop, p.why)
			}
		}

		// The rule the readers share. In a segment that is not the last,
		// every stop but clean and empty is refused; in the last one, only
		// damage is.
		bad := p.stop != stopClean && p.stop != stopEmpty
		if err := p.refuse("seg", false); errors.Is(err, ErrCorrupt) != bad || (err == nil) == bad {
			t.Fatalf("not last: %v; stop %d (%s)", err, p.stop, p.why)
		}
		damage := p.stop == stopDamage
		if err := p.refuse("seg", true); errors.Is(err, ErrCorrupt) != damage || (err == nil) == damage {
			t.Fatalf("last: %v; stop %d (%s)", err, p.stop, p.why)
		}
	})
}

// TestSegmentReadersShareOneVerdict takes the two segments of the committed
// image, cut short at every length and with one bit flipped in every byte,
// through the three readers on real files: what recovery truncates to, where a
// scan ends and what the listing shows all follow from the one parse. So does
// each segment with its final record re-framed in a foreign format, which is
// damage: a newer writer's record, never a torn tail to cut off.
func TestSegmentReadersShareOneVerdict(t *testing.T) {
	for _, gen := range []uint64{4, 6} {
		whole, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wal-format3", segName(gen)))
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(whole); n++ {
			checkReaders(t, whole[:n], gen)
		}
		for i := range whole {
			b := bytes.Clone(whole)
			b[i] ^= 1 << (i % 8)
			checkReaders(t, b, gen)
		}
		recs := parseSegment(whole, gen).recs
		final := recs[len(recs)-1].Frame
		payload, _, _ := readFrame(final)
		foreign := append([]byte{Format + 1}, payload[1:]...)
		b := appendFrame(bytes.Clone(whole[:len(whole)-len(final)]), foreign)
		if p := parseSegment(b, gen); p.stop != stopDamage {
			t.Fatalf("a foreign-format record stops the parse with %d (%s), want damage", p.stop, p.why)
		}
		checkReaders(t, b, gen)
	}
}

func checkReaders(t *testing.T, b []byte, gen uint64) {
	t.Helper()
	p := parseSegment(b, gen)
	bad := p.stop != stopClean && p.stop != stopEmpty
	damage := p.stop == stopDamage
	dir := t.TempDir()
	path := filepath.Join(dir, segName(gen))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	size := func() int {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(st.Size())
	}

	// Not the last segment: recovery and the scan refuse every stop but
	// clean and empty, and recovery leaves the file alone.
	recs, warn, err := recoverSegment(path, gen, false)
	if errors.Is(err, ErrCorrupt) != bad || (err == nil && (warn != "" || len(recs) != len(p.recs))) || size() != len(b) {
		t.Fatalf("recovery, not last: %d records, warning %q, err %v, %d of %d bytes left; stop %d (%s)",
			len(recs), warn, err, size(), len(b), p.stop, p.why)
	}
	later := filepath.Join(dir, segName(gen+1)) // header only; makes this one not the last
	if err := os.WriteFile(later, appendFrame([]byte(segMagic), u64bytes(gen+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = ScanFrom(dir, gen, gen+8); errors.Is(err, ErrCorrupt) != bad || (err == nil) == bad {
		t.Fatalf("scan, not last: %v; stop %d (%s)", err, p.stop, p.why)
	}
	if err := os.Remove(later); err != nil {
		t.Fatal(err)
	}

	// The last segment: only damage is refused; the scan ends silently and
	// changes nothing, the listing shows the same records and names the
	// stop, and recovery cuts the file back to the good prefix.
	scanned, err := ScanFrom(dir, gen, gen+8)
	if errors.Is(err, ErrCorrupt) != damage || (err == nil) == damage || size() != len(b) {
		t.Fatalf("scan, last: %v, %d of %d bytes left; stop %d (%s)", err, size(), len(b), p.stop, p.why)
	}
	if err == nil && len(scanned) != len(p.recs) {
		t.Fatalf("scan, last: %d records out of a segment that parses to %d", len(scanned), len(p.recs))
	}
	info, err := Inspect(dir)
	if err != nil || len(info.Segments) != 1 || len(info.Segments[0].Records) != len(p.recs) || info.Segments[0].Note != p.why {
		t.Fatalf("inspect: %+v, %v; parse has %d records and stopped with %q", info, err, len(p.recs), p.why)
	}
	recs, warn, err = recoverSegment(path, gen, true)
	if errors.Is(err, ErrCorrupt) != damage || (err == nil) == damage {
		t.Fatalf("recovery, last: %v; stop %d (%s)", err, p.stop, p.why)
	}
	if err == nil && (len(recs) != len(p.recs) || (warn != "") != bad || size() != p.good) {
		t.Fatalf("recovery, last: %d records, warning %q, %d bytes left; parse has %d records, good=%d, stop %d (%s)",
			len(recs), warn, size(), len(p.recs), p.good, p.stop, p.why)
	}
}

// TestAppendEncodesEachRecordOnce: Append hands back, frame by frame, the
// bytes it put in the segment, and a 64-record append costs no allocation
// per record (its buffers are the log's own, reused).
func TestAppendEncodesEachRecordOnce(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	defer l.Close()
	if err := l.WriteCheckpoint(0, ckptBuf("genesis")); err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = rec(uint64(i + 1))
	}
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	p := parseSegment(b, 0)
	if p.stop != stopClean || len(p.recs) != len(recs) {
		t.Fatalf("segment parses to %d records, stop %d (%s)", len(p.recs), p.stop, p.why)
	}
	for i, r := range p.recs {
		if !bytes.Equal(l.Frame(i), r.Frame) {
			t.Fatalf("record %d: Frame hands back %d bytes, the segment holds %d", i, len(l.Frame(i)), len(r.Frame))
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := l.Append(recs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a 64-record Append allocates %.0f objects, want a constant few", allocs)
	}
}

// FuzzReadCheckpoint fuzzes the checkpoint file's framing — ReadCheckpoint
// behind its file read, so the target touches no file. Whatever the bytes:
// no panic, and a file that is accepted is the file frameCheckpoint writes
// for the payload it returned — nothing that reads as a checkpoint carries a
// byte the payload and the generation do not account for.
func FuzzReadCheckpoint(f *testing.F) {
	var file []byte
	for _, gen := range []uint64{4, 6} {
		var err error
		if file, err = os.ReadFile(filepath.Join("..", "..", "testdata", "wal-format3", ckptName(gen))); err != nil {
			f.Fatal(err)
		}
		f.Add(file, gen)
	}
	f.Add(frameCheckpoint(0, make([]byte, CheckpointHeadroom)), uint64(0)) // an empty state
	f.Add(file, uint64(4))                                                 // ckpt-6 under the name of ckpt-4
	// ckpt-6 with its generation frame's length padded to two bytes
	at := len(ckptMagic)
	f.Add(append(append(bytes.Clone(file[:at]), file[at]|0x80, 0x00), file[at+1:]...), uint64(6))
	f.Fuzz(func(t *testing.T, file []byte, gen uint64) {
		state, err := parseCheckpoint(file, gen)
		if err != nil {
			return
		}
		buf := append(make([]byte, CheckpointHeadroom, CheckpointHeadroom+len(state)), state...)
		if again := frameCheckpoint(gen, buf); !bytes.Equal(again, file) {
			t.Fatalf("accepted a %d-byte file that is not the %d-byte framing of its %d-byte payload at generation %d",
				len(file), len(again), len(state), gen)
		}
	})
}

// TestCheckpointLengthMustBeShortestForm is the input the round trip above
// turns on: a frame length padded to two bytes decodes to the same number and
// leaves both checksums intact, so only the file's size gives it away.
func TestCheckpointLengthMustBeShortestForm(t *testing.T) {
	file := frameCheckpoint(7, append(make([]byte, CheckpointHeadroom), "state"...))
	if state, err := parseCheckpoint(file, 7); err != nil || string(state) != "state" {
		t.Fatalf("the writer's own file: %q, %v", state, err)
	}
	at := len(ckptMagic) // the generation frame's length byte: 8
	padded := append(append(bytes.Clone(file[:at]), file[at]|0x80, 0x00), file[at+1:]...)
	if _, err := parseCheckpoint(padded, 7); err == nil {
		t.Fatal("a checkpoint with a padded frame length was accepted")
	}
}
