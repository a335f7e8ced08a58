package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
)

// seedLog creates a durable dir with a genesis checkpoint and records 1..n.
func seedLog(t *testing.T, dir string, n uint64) *Log {
	t.Helper()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.WriteCheckpoint(0, ckptBuf("genesis")); err != nil {
		t.Fatalf("genesis checkpoint: %v", err)
	}
	for g := uint64(1); g <= n; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatalf("append %d: %v", g, err)
		}
	}
	return l
}

func TestFramedRecordWireRoundTrip(t *testing.T) {
	var wire []byte
	for g := uint64(1); g <= 4; g++ {
		wire = AppendFramedRecord(wire, rec(g))
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	for g := uint64(1); g <= 4; g++ {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", g, err)
		}
		if !reflect.DeepEqual(got, rec(g)) {
			t.Fatalf("record %d:\n got  %+v\n want %+v", g, got, rec(g))
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestFrameReaderTornAndCorrupt(t *testing.T) {
	wire := AppendFramedRecord(nil, rec(1))

	// Ends inside the frame: ErrUnexpectedEOF.
	fr := NewFrameReader(bytes.NewReader(wire[:len(wire)-3]))
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: %v, want ErrUnexpectedEOF", err)
	}

	// Flipped payload byte: ErrCorrupt.
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 0xff
	fr = NewFrameReader(bytes.NewReader(bad))
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: %v, want ErrCorrupt", err)
	}

	// A length varint longer than any uint64 is damage, not a short read;
	// ten continuation bytes and then the end of the stream are a torn one.
	fr = NewFrameReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, 11)))
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing length: %v, want ErrCorrupt", err)
	}
	fr = NewFrameReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, 10)))
	if _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn length: %v, want ErrUnexpectedEOF", err)
	}
}

// FuzzFrameReader: the stream reader on bytes it did not write, read whole
// and one byte at a time. Never a panic, and both readings give the records
// readFrame and decodeRecord find in the same bytes, then the error of the
// place they stop: io.EOF only at a frame boundary, io.ErrUnexpectedEOF
// inside a frame, ErrCorrupt otherwise. Seeds: frames Log.Append wrote,
// their truncations, and a whole frame in a foreign format.
func FuzzFrameReader(f *testing.F) {
	l, _, err := Open(f.TempDir(), Options{Policy: SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteCheckpoint(0, ckptBuf("genesis")); err != nil {
		f.Fatal(err)
	}
	if err := l.Append([]Record{rec(1), rec(2), rec(3)}); err != nil {
		f.Fatal(err)
	}
	var wire []byte
	for i := range 3 {
		wire = append(wire, l.Frame(i)...)
	}
	first := len(l.Frame(0))
	for _, n := range []int{len(wire), len(wire) - 1, first, first + 1, first + 3, first / 2, 0} {
		f.Add(wire[:n])
	}
	f.Add(bytes.Repeat([]byte{0xff}, 11))
	payload, _, _ := readFrame(l.Frame(1))
	f.Add(appendFrame(bytes.Clone(wire[:first]), append([]byte{Format + 1}, payload[1:]...)))

	f.Fuzz(func(t *testing.T, b []byte) {
		var want []Record
		wantErr := io.EOF
	parse:
		for rest := b; ; {
			payload, next, res := readFrame(rest)
			switch res {
			case frameEOF:
				break parse
			case frameTorn:
				wantErr = io.ErrUnexpectedEOF
				break parse
			case frameCorrupt:
				wantErr = ErrCorrupt
				break parse
			}
			r, err := decodeRecord(payload)
			if err != nil {
				wantErr = ErrCorrupt
				break parse
			}
			want, rest = append(want, r), next
		}
		for name, r := range map[string]io.Reader{
			"whole":              bytes.NewReader(b),
			"one byte at a time": iotest.OneByteReader(bytes.NewReader(b)),
		} {
			fr := NewFrameReader(r)
			for i, w := range want {
				if got, err := fr.Next(); err != nil || !reflect.DeepEqual(got, w) {
					t.Fatalf("%s: record %d: %+v (%v), the parser read %+v", name, i, got, err, w)
				}
			}
			if _, err := fr.Next(); errClass(err) != errClass(wantErr) {
				t.Fatalf("%s: after %d records: %v, the parser stopped with %v", name, len(want), err, wantErr)
			}
		}
	})
}

// errClass names which of FrameReader's three stops err is.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "torn"
	case errors.Is(err, io.EOF):
		return "end"
	}
	return fmt.Sprintf("other (%v)", err)
}

func TestScanFromTail(t *testing.T) {
	dir := t.TempDir()
	l := seedLog(t, dir, 8)
	defer l.Close()

	recs, err := ScanFrom(dir, 3, 8)
	if err != nil {
		t.Fatalf("ScanFrom: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("scanned %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.Record, rec(uint64(i+4))) {
			t.Fatalf("record %d: %+v", i, r)
		}
		// The frame that comes back is the one Append wrote, not a re-encoding
		// that happens to match: it is a span of the segment's bytes.
		if want := AppendFramedRecord(nil, rec(uint64(i+4))); !bytes.Equal(r.Frame, want) {
			t.Fatalf("record %d: frame of %d bytes, Append wrote %d", i, len(r.Frame), len(want))
		}
	}

	// The watermark gates emission: bytes past it stay invisible even
	// though they are in the segment.
	recs, err = ScanFrom(dir, 0, 2)
	if err != nil {
		t.Fatalf("ScanFrom capped: %v", err)
	}
	if len(recs) != 2 || recs[1].Gen != 2 {
		t.Fatalf("capped scan returned %d records", len(recs))
	}

	// Caught up: nothing to return.
	if recs, err := ScanFrom(dir, 8, 8); err != nil || len(recs) != 0 {
		t.Fatalf("caught-up scan: %d records, err %v", len(recs), err)
	}
}

func TestScanFromSpansCheckpoints(t *testing.T) {
	dir := t.TempDir()
	l := seedLog(t, dir, 3)
	defer l.Close()
	if err := l.WriteCheckpoint(3, ckptBuf("at3")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for g := uint64(4); g <= 6; g++ {
		if err := l.Append([]Record{rec(g)}); err != nil {
			t.Fatalf("append %d: %v", g, err)
		}
	}
	recs, err := ScanFrom(dir, 1, 6)
	if err != nil {
		t.Fatalf("ScanFrom across rotation: %v", err)
	}
	if len(recs) != 5 || recs[0].Gen != 2 || recs[4].Gen != 6 {
		t.Fatalf("scan across rotation: %d records", len(recs))
	}
}

func TestScanFromPruned(t *testing.T) {
	dir := t.TempDir()
	l := seedLog(t, dir, 3)
	defer l.Close()
	// Two checkpoints on top of genesis: Keep=2 prunes wal-0, the segment
	// that held generations 1..3.
	if err := l.WriteCheckpoint(3, ckptBuf("at3")); err != nil {
		t.Fatalf("checkpoint 3: %v", err)
	}
	if err := l.Append([]Record{rec(4)}); err != nil {
		t.Fatalf("append 4: %v", err)
	}
	if err := l.WriteCheckpoint(4, ckptBuf("at4")); err != nil {
		t.Fatalf("checkpoint 4: %v", err)
	}

	if _, err := ScanFrom(dir, 1, 4); !errors.Is(err, ErrPruned) {
		t.Fatalf("scan from pruned generation: %v, want ErrPruned", err)
	}
	if oldest, err := Oldest(dir); err != nil || oldest != 3 {
		t.Fatalf("Oldest = %d, %v; want 3", oldest, err)
	}
	// From the oldest surviving segment the scan works.
	recs, err := ScanFrom(dir, 3, 4)
	if err != nil || len(recs) != 1 || recs[0].Gen != 4 {
		t.Fatalf("scan from oldest: %d records, err %v", len(recs), err)
	}
}

func TestScanFromToleratesTornActiveTail(t *testing.T) {
	dir := t.TempDir()
	l := seedLog(t, dir, 4)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Chop into the final record: a concurrent reader seeing a half-written
	// append must treat it as end-of-available, not damage — and must not
	// repair the file (that is recovery's job, and only recovery's).
	seg := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ScanFrom(dir, 0, 4)
	if err != nil {
		t.Fatalf("ScanFrom over torn tail: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("scanned %d records over torn tail, want 3", len(recs))
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(b)-3 {
		t.Fatalf("read-only scan changed the segment: %d bytes, had %d", len(after), len(b)-3)
	}
}
