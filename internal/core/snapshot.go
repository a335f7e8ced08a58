package core

import (
	"io"
	"strings"

	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/xpath"
)

// Generation counts the write units committed to the view since Open: it
// increments exactly once per applied insertion or deletion (Apply, and
// each applied member of a non-atomic batch) and exactly once per committed
// atomic transaction, however many updates it staged — and never for
// rejected, skipped, no-op, rolled-back or dry-run updates. Two systems
// opened from the same data that committed the same write-unit sequence
// report the same generation, which is what lets a serving layer map an
// observed snapshot back to a prefix of the write history; because a
// transaction is one unit, no observable generation ever splits one.
func (s *System) Generation() uint64 { return s.gen }

// Snapshot is an immutable view of the system state at one generation: the
// DAG-compressed view, frozen. It
// answers queries and renders statistics and XML without touching the live
// System, so any number of goroutines may use one Snapshot concurrently
// while the System keeps applying updates — the epoch unit of the
// snapshot-isolated serving layer.
//
// Snapshots are copy-on-write versions, not clones: System.Snapshot seals
// the live structures in time proportional to what changed since the
// previous seal (O(Δ)), sharing every untouched chunk and row with the
// live view and with neighboring snapshots. (The tests build the same
// Snapshot by deep copy, CloneSnapshot in export_test.go, as the
// differential baseline for the COW machinery and the aliasing oracle.)
//
// A Snapshot never reads the database: text content lives in the sealed
// attribute tuples, and the base-row count is captured at snapshot time.
// Update paths (Apply, DryRun, Batch) are intentionally absent.
type Snapshot struct {
	gen      uint64
	dag      dag.Reader
	text     func(dag.NodeID) (string, bool)
	textEq   func(typ, s string) func(dag.NodeID) bool
	baseRows int
	digest   digest.Sum // the state digest at gen; zero when the system keeps none
}

// Snapshot freezes the current view state in O(Δ): it seals the DAG into an
// immutable copy-on-write version. It must not run concurrently with
// updates on the same System (the System itself is single-writer); the
// serving layer's apply loop calls it after each write and publishes the
// result atomically. Snapshot panics while a transaction is open — an
// epoch must never expose uncommitted staged state (the serving layer
// publishes strictly between write units, so it can never hit this).
func (s *System) Snapshot() *Snapshot {
	if s.txn != nil {
		panic("core: Snapshot inside an open transaction (commit or roll back first)")
	}
	v := s.DAG.Seal()
	return &Snapshot{
		gen:      s.gen,
		dag:      v,
		text:     s.ATG.Text(v),
		textEq:   s.ATG.TextEquals(v),
		baseRows: s.DB.TotalRows(),
		digest:   s.digest,
	}
}

// Generation returns the write-history prefix this snapshot reflects.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Digest returns the state digest at the snapshot's generation; ok is false
// when the system it was taken from keeps none (System.StartDigest).
func (sn *Snapshot) Digest() (sum digest.Sum, ok bool) { return sn.digest, !sn.digest.IsZero() }

// DAG exposes the frozen view structure (for node rendering in the public
// layer). Callers must treat it as read-only.
func (sn *Snapshot) DAG() dag.Reader { return sn.dag }

// Text exposes the frozen PCDATA accessor.
func (sn *Snapshot) Text() func(dag.NodeID) (string, bool) { return sn.text }

// evaluator returns a fresh XPath evaluator over the frozen state. Each
// call builds its own evaluator, so concurrent queries share no mutable
// state. As on the live System, the evaluator picks the route per path.
func (sn *Snapshot) evaluator() *xpath.Evaluator {
	return &xpath.Evaluator{
		D:          sn.dag,
		Text:       sn.text,
		TextEquals: sn.textEq,
	}
}

// Select evaluates a parsed path against the frozen state for its
// selection only — what a memo-miss read costs.
func (sn *Snapshot) Select(p *xpath.Path) (*xpath.Result, error) {
	return observeEval(sn.evaluator().EvalSelect(p))
}

// Stats computes the frozen view's statistics.
func (sn *Snapshot) Stats() Stats {
	return statsFor(sn.dag, sn.baseRows)
}

// WriteXML serializes the frozen view; maxNodes bounds the unfolded size.
func (sn *Snapshot) WriteXML(w io.Writer, maxNodes int) error {
	tree, err := dag.Unfold(sn.dag, sn.dag.Root(), sn.text, maxNodes)
	if err != nil {
		return err
	}
	return tree.WriteXML(w)
}

// XML returns the serialized frozen view, or an error if it exceeds the
// budget.
func (sn *Snapshot) XML(maxNodes int) (string, error) {
	var b strings.Builder
	if err := sn.WriteXML(&b, maxNodes); err != nil {
		return "", err
	}
	return b.String(), nil
}
