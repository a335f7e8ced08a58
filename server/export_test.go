package server

import "time"

// The package's tests run on short delays: a recovery prober or a follower
// retries within milliseconds, and a caught-up /repl/stream poll recycles
// after 50ms, so convergence and healing take milliseconds, not seconds.
// Set before any test starts a goroutine that reads them.
func init() {
	backoffBase, backoffCap = time.Millisecond, 8*time.Millisecond
	streamWindow = 50 * time.Millisecond
}
