package rxview

import (
	"rxview/internal/core"
	"rxview/internal/wal"
)

// Option configures a View at Open time.
type Option func(*config)

type config struct {
	opts core.Options

	// Durability (see WithDurability): zero values mean "not durable".
	durDir    string
	fsync     FsyncPolicy
	ckptEvery int
	warn      func(msg string)
}

// FsyncPolicy selects when committed records reach stable storage; see
// WithFsync. It is the log's own policy type.
type FsyncPolicy = wal.SyncPolicy

const (
	// FsyncAlways syncs the log after every commit: a returned verdict
	// implies the transaction survives power loss. The slowest policy.
	FsyncAlways = wal.SyncAlways
	// FsyncBatch syncs the log every few commits (group commit) and on
	// checkpoint and Close. A crash can lose the last unsynced commits,
	// never an interior subset.
	FsyncBatch = wal.SyncBatch
	// FsyncOff never syncs explicitly: records still reach the kernel on
	// every commit, so a process kill loses nothing, but an OS crash or
	// power loss can lose the tail.
	FsyncOff = wal.SyncOff
)

// ParseFsyncPolicy parses the textual policy names used by the command-line
// tools: "always", "batch" or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// WithDurability makes the view durable: committed write units are appended
// to a write-ahead log in dir before their verdict is returned, sealed
// epochs are checkpointed periodically, and Open recovers the newest
// durable state from dir — the checkpoint plus a replay of the log suffix —
// before serving. The caller-provided DB supplies the schema; on recovery
// its contents are replaced by the durable instance. Views opened without
// this option have no durability overhead at all.
func WithDurability(dir string) Option {
	return func(c *config) { c.durDir = dir }
}

// WithFsync sets the log sync policy; the default is FsyncAlways.
func WithFsync(p FsyncPolicy) Option {
	return func(c *config) { c.fsync = p }
}

// WithCheckpointEvery sets how many committed generations elapse between
// automatic checkpoints (default 256). A checkpoint bounds both recovery
// time and log growth: the log prefix it seals is pruned. Smaller values
// checkpoint more often: each writes the full state, encoding what changed
// since the previous checkpoint and reading the rest back from its file; n ≤ 0
// means the default.
func WithCheckpointEvery(n int) Option {
	return func(c *config) { c.ckptEvery = n }
}

// WithRecoveryWarn installs a sink for non-fatal durability findings: a
// torn final record truncated during recovery, a corrupt newest checkpoint
// skipped in favor of an older one, a periodic checkpoint that failed (the
// log keeps growing until one succeeds). Without it the findings are
// dropped.
func WithRecoveryWarn(fn func(msg string)) Option {
	return func(c *config) { c.warn = fn }
}

// WithForceSideEffects carries out updates that have XML side effects under
// the revised semantics of §2.1: the change applies to every occurrence of
// the affected shared subtree. Without it (and without a policy) such
// updates fail with ErrSideEffect so the caller can consult the user.
func WithForceSideEffects() Option {
	return func(c *config) { c.opts.ForceSideEffects = true }
}

// Decision is a side-effect policy's verdict on one update. It is the
// pipeline's own type.
type Decision = core.Decision

// Policy decisions.
const (
	// Reject refuses the update with ErrSideEffect.
	Reject = core.DecisionReject
	// ApplyEverywhere carries the update out at every occurrence of the
	// shared subtree (the revised semantics of §2.1).
	ApplyEverywhere = core.DecisionApply
	// Skip drops the update silently: no error, nothing applied.
	Skip = core.DecisionSkip
)

// SideEffectInfo describes a detected XML side effect: applying the update
// to the r[[p]] selected occurrences would also change Witnesses unselected
// occurrences of the same shared subtree. It is the pipeline's own type.
type SideEffectInfo = core.SideEffectInfo

// WithSideEffectPolicy installs a programmable update strategy: instead of
// the all-or-nothing WithForceSideEffects, the policy decides each
// side-effecting update individually — reject it, apply it everywhere, or
// skip it. The policy takes precedence over WithForceSideEffects, whichever
// option comes first. It is consulted on Apply, Batch and DryRun alike, so
// a DryRun predicts exactly what Apply would do under the same policy.
func WithSideEffectPolicy(policy func(SideEffectInfo) Decision) Option {
	return func(c *config) { c.opts.SideEffectPolicy = policy }
}
