package repl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rxview/internal/wal"
)

// ErrPruned re-exports the WAL's pruned-range error: the generations a
// follower asked for were claimed by checkpointing. The follower restarts
// from the newest checkpoint (the serving layer maps this to 410 Gone).
var ErrPruned = wal.ErrPruned

// Source streams a primary's committed change log from a given generation:
// the cold range comes from read-only WAL scans, the hot range from the
// Tail's ring, and a caught-up stream long-polls the Tail's broadcast. Either
// way a frame is the bytes the log's one Append wrote for that record — a
// copy of them in the ring, the segment's own on the cold path — so a
// follower cannot tell the two apart and nothing here encodes.
type Source struct {
	dir  string
	tail *Tail
}

// NewSource combines a WAL directory with its live tail. The tail's
// watermark must already be initialized to the recovered generation.
func NewSource(dir string, tail *Tail) *Source {
	return &Source{dir: dir, tail: tail}
}

// Durable returns the newest streamable generation.
func (s *Source) Durable() uint64 { return s.tail.Durable() }

// Oldest returns the oldest generation a stream can resume from without a
// checkpoint refetch.
func (s *Source) Oldest() (uint64, error) { return wal.Oldest(s.dir) }

// Stream emits the framed records of every generation past from, in order,
// calling emit once per record. When the stream catches up it waits up to
// window for new commits; a window with no progress ends the poll cleanly
// (nil), which is how a chunked HTTP response recycles its connection — the
// follower reconnects with its new from. Context cancellation also returns
// nil via the idle wait; a pruned range returns ErrPruned.
func (s *Source) Stream(ctx context.Context, from uint64, window time.Duration, emit func(gen uint64, frame []byte) error) error {
	m := replmetrics()
	m.streams.Inc()
	for {
		durable := s.tail.Durable()
		if durable > from {
			next, err := s.emitRange(ctx, from, durable, emit)
			if err != nil {
				return err
			}
			if next == from {
				// The watermark says the range is durable but neither the
				// ring nor the files produced it — a prune raced the scan.
				return fmt.Errorf("repl: generations %d..%d unavailable: %w", from+1, durable, ErrPruned)
			}
			from = next
			continue
		}
		if !s.tail.Wait(ctx, from, window) {
			return nil // idle poll window or canceled client: clean end
		}
	}
}

// emitRange sends the frames of (from, to], preferring the ring, and
// returns the last generation emitted.
func (s *Source) emitRange(ctx context.Context, from, to uint64, emit func(gen uint64, frame []byte) error) (uint64, error) {
	m := replmetrics()
	if frames, ok := s.tail.Frames(from, to); ok {
		m.tailHits.Inc()
		for i, f := range frames {
			if err := ctx.Err(); err != nil {
				return from, err
			}
			if err := emit(from+uint64(i)+1, f); err != nil {
				return from, err
			}
			m.recs.Inc()
			m.bytes.Add(uint64(len(f)))
		}
		return from + uint64(len(frames)), nil
	}
	m.tailMisses.Inc()
	recs, err := wal.ScanFrom(s.dir, from, to)
	if err != nil {
		return from, err
	}
	for _, r := range recs {
		if err := ctx.Err(); err != nil {
			return from, err
		}
		if err := emit(r.Gen, r.Frame); err != nil {
			return from, err
		}
		m.recs.Inc()
		m.bytes.Add(uint64(len(r.Frame)))
		from = r.Gen
	}
	return from, nil
}

// IsPruned reports whether err means the requested range was pruned.
func IsPruned(err error) bool { return errors.Is(err, ErrPruned) }
