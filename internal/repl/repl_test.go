package repl

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rxview/internal/dag"
	"rxview/internal/relational"
	"rxview/internal/wal"
)

func rec(g uint64) wal.Record {
	return wal.Record{
		Gen: g,
		Delta: []dag.DeltaOp{{Kind: dag.DeltaNodeAdd, Node: dag.NodeID(g),
			Type: fmt.Sprintf("t%d", g), Attr: relational.Tuple{relational.Str("a")}}},
		DR: []relational.Mutation{{Table: "r", Insert: true,
			Tuple: relational.Tuple{relational.Int(int64(g))}}},
	}
}

// commit appends rec(g) to the log and, the way a durable view's sink does,
// publishes the frame the log wrote to the tail.
func commit(t *testing.T, l *wal.Log, tail *Tail, g uint64) {
	t.Helper()
	if err := l.Append([]wal.Record{rec(g)}); err != nil {
		t.Fatal(err)
	}
	tail.Publish(g, bytes.Clone(l.Frame(0)))
}

// seed opens a WAL with records 1..n and returns it with a matching source.
func seed(t *testing.T, n uint64) (*wal.Log, *Source) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := l.WriteCheckpoint(0, append(make([]byte, wal.CheckpointHeadroom), "genesis"...)); err != nil {
		t.Fatal(err)
	}
	tail := NewTail(0, 8)
	for g := uint64(1); g <= n; g++ {
		commit(t, l, tail, g)
	}
	return l, NewSource(dir, tail)
}

// collect drains one Stream poll into decoded generations.
func collect(t *testing.T, s *Source, from uint64, window time.Duration) []uint64 {
	t.Helper()
	var gens []uint64
	err := s.Stream(context.Background(), from, window, func(gen uint64, frame []byte) error {
		fr := wal.NewFrameReader(bytes.NewReader(frame))
		r, err := fr.Next()
		if err != nil {
			return err
		}
		if r.Gen != gen {
			t.Fatalf("frame for generation %d announced as %d", r.Gen, gen)
		}
		gens = append(gens, gen)
		return nil
	})
	if err != nil {
		t.Fatalf("Stream(from=%d): %v", from, err)
	}
	return gens
}

func TestStreamServesRingAndFiles(t *testing.T) {
	l, s := seed(t, 12) // ring capacity 8: generations 1..4 have aged out
	if d := s.Durable(); d != 12 {
		t.Fatalf("durable = %d, want 12", d)
	}
	// From 0: the ring misses, the file scan serves all 12.
	gens := collect(t, s, 0, 10*time.Millisecond)
	if len(gens) != 12 || gens[0] != 1 || gens[11] != 12 {
		t.Fatalf("cold stream got %v", gens)
	}
	// From 6: inside the ring.
	gens = collect(t, s, 6, 10*time.Millisecond)
	if len(gens) != 6 || gens[0] != 7 {
		t.Fatalf("hot stream got %v", gens)
	}
	// One encoding per commit: the frame the ring serves for a generation
	// and the frame a cold scan reads out of the segment for it are the same
	// bytes, both the ones Append wrote.
	hot, ok := s.Tail().Frames(6, 12)
	cold, err := wal.ScanFrom(l.Dir(), 6, 12)
	if !ok || err != nil || len(hot) != 6 || len(cold) != 6 {
		t.Fatalf("ring served %d frames (ok=%v), scan %d (err %v); want 6 and 6", len(hot), ok, len(cold), err)
	}
	for i := range hot {
		if !bytes.Equal(hot[i], cold[i].Frame) {
			t.Fatalf("generation %d: ring frame and file frame differ", cold[i].Gen)
		}
	}
	// Caught up: the poll window elapses cleanly with nothing emitted.
	if gens = collect(t, s, 12, 10*time.Millisecond); len(gens) != 0 {
		t.Fatalf("caught-up stream emitted %v", gens)
	}
}

func TestStreamWakesOnPublish(t *testing.T) {
	l, s := seed(t, 3)
	done := make(chan []uint64, 1)
	go func() {
		var gens []uint64
		s.Stream(context.Background(), 3, 2*time.Second, func(gen uint64, _ []byte) error {
			gens = append(gens, gen)
			if gen == 5 {
				return context.Canceled // stop the poll from the consumer side
			}
			return nil
		})
		done <- gens
	}()
	time.Sleep(20 * time.Millisecond) // the stream is parked in Wait now
	for g := uint64(4); g <= 5; g++ {
		commit(t, l, s.Tail(), g)
	}
	select {
	case gens := <-done:
		if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
			t.Fatalf("woken stream got %v", gens)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream never woke on publish")
	}
}

func TestStreamReportsPrunedRange(t *testing.T) {
	l, s := seed(t, 3)
	// Two checkpoints prune the segment holding generations 1..3.
	if err := l.WriteCheckpoint(3, append(make([]byte, wal.CheckpointHeadroom), "at3"...)); err != nil {
		t.Fatal(err)
	}
	commit(t, l, s.Tail(), 4)
	if err := l.WriteCheckpoint(4, append(make([]byte, wal.CheckpointHeadroom), "at4"...)); err != nil {
		t.Fatal(err)
	}
	// A fresh tail models a restarted primary: the ring is empty, so the
	// cold scan must notice the pruned range instead of serving a gap.
	cold := NewSource(l.Dir(), NewTail(4, 8))
	err := cold.Stream(context.Background(), 0, 10*time.Millisecond, func(uint64, []byte) error { return nil })
	if !IsPruned(err) {
		t.Fatalf("stream over pruned range: %v, want pruned", err)
	}
	if oldest, err := cold.Oldest(); err != nil || oldest != 3 {
		t.Fatalf("Oldest = %d, %v; want 3", oldest, err)
	}
}

func TestTailWatermarkGatesEmission(t *testing.T) {
	l, s := seed(t, 2)
	// Bytes on disk past the watermark — an append whose commit has not
	// been acknowledged yet — must stay invisible to streams.
	if err := l.Append([]wal.Record{rec(3)}); err != nil {
		t.Fatal(err)
	}
	gens := collect(t, s, 0, 10*time.Millisecond)
	if len(gens) != 2 {
		t.Fatalf("stream emitted %v past the durable watermark", gens)
	}
	s.Tail().Publish(3, bytes.Clone(l.Frame(0)))
	if gens = collect(t, s, 2, 10*time.Millisecond); len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("post-publish stream got %v", gens)
	}
}

// TestTailPublishPastCapacityDoesNotReallocate: a ring that has reached max
// compacts into a fresh array once per max/4 publishes — when the headroom
// the last compaction left is used up — not on every publish, and it still
// serves the newest max generations at any point in between.
func TestTailPublishPastCapacityDoesNotReallocate(t *testing.T) {
	const max = 64
	tail := NewTail(0, max)
	frame := []byte("f")
	gen := uint64(0)
	publish := func() { gen++; tail.Publish(gen, frame) }
	for gen < 2*max {
		publish()
	}
	// AllocsPerRun rounds the average down: a wake channel per publish and a
	// ring every max/4 publishes is 1, a ring per publish would be 2.
	if allocs := testing.AllocsPerRun(max, publish); allocs >= 2 {
		t.Fatalf("a publish past capacity allocates %.0f objects; compacting on every one of them again?", allocs)
	}
	arrays := 0
	var last *framed
	for i := 0; i < max; i++ {
		publish()
		if first := &tail.ring[:1][0]; first != last {
			arrays, last = arrays+1, first
		}
		if len(tail.ring) < max || len(tail.ring) > max+max/4 {
			t.Fatalf("ring holds %d frames, want between %d and %d", len(tail.ring), max, max+max/4)
		}
		if frames, ok := tail.Frames(gen-max, gen); !ok || len(frames) != max {
			t.Fatalf("at generation %d the ring serves %d of the newest %d (ok=%v)", gen, len(frames), max, ok)
		}
	}
	if arrays > 1+max/(max/4) {
		t.Fatalf("%d ring arrays in %d publishes, want one per %d", arrays, max, max/4)
	}
}
