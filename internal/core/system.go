// Package core is the public facade of the system: it wires together the
// full update-processing framework of Fig.3 in the paper. A System holds the
// published database I, the DAG compression of the XML view T = σ(I) with
// its relational coding V, and the source index of the relational
// translator. XML updates go through the three phases of §2.4: DTD
// validation, ΔX → ΔV translation (with XPath evaluation and side-effect
// detection on the DAG), and ΔV → ΔR translation; then ΔR is applied to I,
// ΔV to V, and a deletion collects what it left unreachable (Fig.8's
// garbage collection, dag.DAG.Collect).
//
// The paper's auxiliary structures, the topological order L and the
// reachability matrix M, are not here: the state-set evaluator that serves
// reads the DAG only — its sweep orders the nodes it visits itself — so a
// System neither builds nor maintains either. Whoever wants them (the
// paper's experiments, internal/bench) builds them in package paper and
// keeps them exact from each commit's DAG delta (CommitRecord.Delta).
package core

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"rxview/internal/atg"
	"rxview/internal/dag"
	"rxview/internal/digest"
	"rxview/internal/fault"
	"rxview/internal/relational"
	"rxview/internal/update"
	"rxview/internal/viewupdate"
	"rxview/internal/xpath"
)

// Options configures update processing.
type Options struct {
	// ForceSideEffects carries out updates that have XML side effects
	// under the revised semantics of §2.1 (the change applies to every
	// occurrence of the affected shared subtree). When false, such updates
	// return a *SideEffectError so the caller can consult the user.
	ForceSideEffects bool
	// SideEffectPolicy, when non-nil, decides side-effecting updates case
	// by case and takes precedence over ForceSideEffects. It is the
	// "consult the user" step of §2.1 as a programmable hook.
	SideEffectPolicy func(SideEffectInfo) Decision
}

// Decision is a side-effect policy's verdict on one update.
type Decision int

// Policy decisions.
const (
	// DecisionReject refuses the update with a *SideEffectError (the
	// public ErrSideEffect). So does any value not listed here.
	DecisionReject Decision = iota
	// DecisionApply carries the update out at every occurrence of the
	// shared subtree (the revised semantics of §2.1).
	DecisionApply
	// DecisionSkip drops the update silently: no error, nothing applied.
	DecisionSkip
)

// SideEffectInfo describes a detected XML side effect for a policy:
// applying the update to the r[[p]] selected occurrences would also change
// Witnesses unselected occurrences of the same shared subtree.
type SideEffectInfo struct {
	Op        string // the update, rendered
	Delete    bool   // deletion (vs insertion)
	Targets   int    // |r[[p]]|, the selected occurrences
	Witnesses int    // unselected occurrences that would change
}

// gateSideEffect consults the policy for one detected side effect — the
// SideEffectPolicy if there is one, else ForceSideEffects. It returns
// skip=true for DecisionSkip (the caller no-ops) and a *SideEffectError for
// DecisionReject; (false, nil) means carry on under the revised semantics.
func (s *System) gateSideEffect(op *update.Op, targets, witnesses int, del bool) (skip bool, err error) {
	d := DecisionReject
	if s.opts.SideEffectPolicy != nil {
		d = s.opts.SideEffectPolicy(SideEffectInfo{Op: op.String(), Delete: del, Targets: targets, Witnesses: witnesses})
	} else if s.opts.ForceSideEffects {
		d = DecisionApply
	}
	switch d {
	case DecisionSkip:
		return true, nil
	case DecisionApply:
		return false, nil
	default:
		return false, &SideEffectError{Op: op.String(), Witnesses: witnesses}
	}
}

// SideEffectError reports that an update would touch unselected occurrences
// of a shared subtree. Retry with ForceSideEffects to proceed under the
// revised semantics.
type SideEffectError struct {
	Op        string
	Witnesses int
}

func (e *SideEffectError) Error() string {
	return fmt.Sprintf("core: %s has XML side effects (%d witness occurrence(s)); re-run with ForceSideEffects to apply at every occurrence", e.Op, e.Witnesses)
}

// Timings breaks an update into the phases the paper's Fig.11 reports:
// (a) XPath evaluation, (b) translation ΔX→ΔV→ΔR plus execution, and
// (c) maintenance (background in the paper): a view keeps no auxiliary
// structure, so what is left of (c) is a deletion's garbage collection.
type Timings struct {
	Validate  time.Duration
	Eval      time.Duration // (a)
	Translate time.Duration // (b): ΔX→ΔV and ΔV→ΔR (= XToDV + DVToDR)
	XToDV     time.Duration // Algorithm Xinsert (Fig.5); zero for a deletion, whose ΔV is Ep(r) as evaluated (Fig.6)
	DVToDR    time.Duration // Algorithm insert / delete (§4)
	Apply     time.Duration // (b): executing ΔR and ΔV
	Maintain  time.Duration // (c): a deletion's garbage collection (dag.DAG.Collect); zero for an insertion
}

// Report describes one processed update. Timings.Maintain covers the
// collection of the Removed nodes.
type Report struct {
	Op          string
	Applied     bool
	RP          int // |r[[p]]|
	EP          int // |Ep(r)|
	SideEffects bool
	DVInserts   int
	DVDeletes   int
	DR          []relational.Mutation
	Removed     int    // garbage-collected nodes
	Route       string // how the path was evaluated: "anchored" or "sweep" (xpath.Route; "down" is a read's only)
	Timings     Timings
}

// System is a published XML view with update support.
type System struct {
	ATG        *atg.Compiled
	DB         *relational.Database // the base relations I; every ΔR goes through applyDR
	DAG        *dag.DAG
	Translator *viewupdate.Translator

	sink      CommitSink // durability hook, nil when the view is not durable
	afterSync func(gen uint64)

	// The state digest at gen (package digest). Zero — none — until
	// StartDigest or Recover turns it on, for durable views and replicas.
	digest digest.Sum

	opts Options
	text func(dag.NodeID) (string, bool)
	// textEq is the typed form of text(v) == s; see atg.Compiled.TextEquals.
	textEq func(typ, s string) func(dag.NodeID) bool
	// seeds finds anchored paths' seeds through the live DAG's Skolem
	// registry; see atg.Compiled.TextSeeds.
	seeds func(typ, s string, dst []dag.NodeID) ([]dag.NodeID, bool)
	gen   uint64 // count of committed write units; see Generation
	txn   *Txn   // the open transaction, if any (see Begin)
}

// Open publishes σ(I) as a DAG, builds the source index, and returns the
// system.
func Open(c *atg.Compiled, db *relational.Database, opts Options) (*System, error) {
	d, err := c.PublishDAG(db)
	if err != nil {
		return nil, err
	}
	s := &System{
		ATG:        c,
		DB:         db,
		DAG:        d,
		Translator: viewupdate.NewTranslator(c, db, d),
		opts:       opts,
		text:       c.Text(d),
		textEq:     c.TextEquals(d),
		seeds:      c.TextSeeds(d),
	}
	s.warmIndexes()
	return s, nil
}

// applyDR executes ΔR on the base relations — the insert stage, the delete
// stage and ApplyCommitRecord all go through here. The fault point fires
// before any mutation lands, so an injected failure is indistinguishable
// from a refused ΔR: the caller aborts cleanly and nothing is half-applied.
func (s *System) applyDR(dr []relational.Mutation) error {
	if err := fault.Hit(fault.StorageApply); err != nil {
		return err
	}
	return s.DB.Apply(dr)
}

// warmIndexes pre-builds the secondary hash indexes on every column that a
// rule query can join through, so the first update does not pay the build.
func (s *System) warmIndexes() {
	for _, r := range s.ATG.QueryRules() {
		q := r.Query
		for _, p := range q.Where {
			for _, o := range []relational.Operand{p.Left, p.Right} {
				if o.IsCol() {
					if rel := s.DB.Rel(q.From[o.Tab].Table); rel != nil {
						rel.BuildIndex(o.Col)
					}
				}
			}
		}
	}
}

// pathCache is the process-wide compiled-path LRU: every query surface —
// live System, frozen Snapshot, and the server handlers above them —
// parses through it, so a hot query text is compiled once per process, not
// once per request. Compiled paths are immutable, which is what makes the
// sharing sound; parse errors are cached too (the malformed-query fast
// path: no re-parse, no evaluator allocation).
var pathCache = xpath.NewCache(4096)

// ParsePath compiles an XPath through the shared compiled-path cache.
func ParsePath(path string) (*xpath.Path, error) {
	return pathCache.Parse(path)
}

// PathCacheStats returns the shared compiled-path cache's hit/miss
// counters (process-wide, monotone).
func PathCacheStats() (hits, misses uint64) {
	return pathCache.Stats()
}

// evaluator returns a fresh XPath evaluator over the current view. The
// route each evaluation takes — anchored cone or full sweep — is the
// evaluator's choice, made from the compiled path's shape alone; an anchored
// one finds its seeds through gen_id, which only the live view has.
func (s *System) evaluator() *xpath.Evaluator {
	return &xpath.Evaluator{
		D:          s.DAG,
		Text:       s.text,
		TextEquals: s.textEq,
		Seeds:      s.seeds,
	}
}

// Eval evaluates a parsed path, returning the full result (selection, Ep,
// side-effect witnesses) — what the update pipeline needs.
func (s *System) Eval(p *xpath.Path) (*xpath.Result, error) {
	return observeEval(s.evaluator().Eval(p))
}

// Select evaluates a parsed path for its selection only (r[[p]] and Ep, no
// side-effect bookkeeping): the read path.
func (s *System) Select(p *xpath.Path) (*xpath.Result, error) {
	return observeEval(s.evaluator().EvalSelect(p))
}

// Apply runs the full pipeline for one XML update ΔX.
func (s *System) Apply(op *update.Op) (*Report, error) {
	//lint:ignore xviewlint/ctxflow documented context-free convenience variant; callers holding a ctx use ApplyCtx
	return s.ApplyCtx(context.Background(), op)
}

// ApplyCtx is Apply with cancellation checks between the three phases of
// §2.4: after DTD validation, after XPath evaluation (phase a), and after
// translation (phase b) before ΔR is executed. Once ΔR has been executed
// the update is carried through — cancellation never leaves the view
// half-collected.
//
// It is a one-shot transaction: stage the single update, commit. With one
// member, prefix semantics and atomicity coincide.
func (s *System) ApplyCtx(ctx context.Context, op *update.Op) (*Report, error) {
	t, err := s.Begin(false)
	if err != nil {
		return &Report{Op: op.String()}, err
	}
	rep, err := t.Stage(ctx, op)
	if cerr := t.Commit(ctx); err == nil && cerr != nil {
		err = cerr
	}
	return rep, err
}

// apply runs one update through the pipeline of §2.4 inside the open DAG
// journal — DTD validation, XPath evaluation, side-effect gating,
// translation and execution, with cancellation checks between the phases —
// and returns, with the report, the update's own delta: the journal since a
// mark taken before the update mutates anything. An update that does not
// apply is rewound to the mark and has no delta. apply is the only caller
// of the translation: Txn.Stage keeps what it does, DryRunCtx unwinds it.
//
// xviewlint:hot-path
func (s *System) apply(ctx context.Context, op *update.Op) (*Report, []dag.DeltaOp, error) {
	rep := &Report{Op: op.String()}
	t0 := time.Now()
	if err := update.ValidateAgainstDTD(s.ATG.DTD, op); err != nil {
		return rep, nil, err
	}
	ins := op.Kind == update.OpInsert
	if ins {
		if err := s.ATG.CheckAttr(op.Type, op.Attr); err != nil {
			return rep, nil, &update.InvalidError{Reason: err.Error()}
		}
	}
	rep.Timings.Validate = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return rep, nil, err
	}

	t0 = time.Now()
	res, err := s.Eval(op.Path)
	if err != nil {
		return rep, nil, err
	}
	rep.Timings.Eval = time.Since(t0)
	rep.RP, rep.EP, rep.Route = len(res.Selected), len(res.Edges), res.Route.String()
	if err := ctx.Err(); err != nil {
		return rep, nil, err
	}

	witnesses, matched := len(res.InsertWitnesses), len(res.Selected)
	rep.SideEffects = res.HasInsertSideEffects()
	if !ins {
		witnesses, matched = len(res.DeleteWitnesses), len(res.Edges)
		rep.SideEffects = res.HasDeleteSideEffects()
	}
	if rep.SideEffects {
		if skip, err := s.gateSideEffect(op, len(res.Selected), witnesses, !ins); skip || err != nil {
			return rep, nil, err
		}
	}
	if matched == 0 {
		return rep, nil, nil // nothing matched: a no-op, not an error
	}

	sp := s.savepoint()
	if ins {
		err = s.applyInsert(ctx, op, res, rep, sp.mark)
	} else {
		err = s.applyDelete(ctx, res, rep)
	}
	if !rep.Applied {
		s.rewind(sp)
		return rep, nil, err
	}
	t0 = time.Now()
	delta := s.DAG.DeltaSince(sp.mark)
	s.noteDelta(delta, +1)
	for _, o := range delta {
		if o.Kind == dag.DeltaEdgeAdd {
			rep.DVInserts++
		}
	}
	rep.Timings.Apply += time.Since(t0)
	return rep, delta, err
}

// noteDelta keeps the translator's source index in step with a DAG delta:
// sign +1 once the delta is applied, -1 when it is undone. The index counts
// sources per edge, so the order of the ops does not matter.
func (s *System) noteDelta(delta []dag.DeltaOp, sign int) {
	for _, op := range delta {
		if op.Kind != dag.DeltaEdgeAdd && op.Kind != dag.DeltaEdgeDel {
			continue
		}
		if (op.Kind == dag.DeltaEdgeAdd) == (sign > 0) {
			s.Translator.NoteEdgeInserted(op.Edge)
		} else {
			s.Translator.NoteEdgeDeleted(op.Edge)
		}
	}
}

// applyInsert leaves a rejected, canceled or no-op insertion's speculative
// ΔV for apply to rewind.
func (s *System) applyInsert(ctx context.Context, op *update.Op, res *xpath.Result, rep *Report, mark int) error {
	t0 := time.Now()
	if err := update.Xinsert(s.ATG, s.DAG, s.DB, res.Selected, op.Type, op.Attr); err != nil {
		return err
	}
	dv := s.DAG.DeltaSince(mark)
	rep.Timings.XToDV = time.Since(t0)
	if !slices.ContainsFunc(dv, func(o dag.DeltaOp) bool { return o.Kind == dag.DeltaEdgeAdd }) {
		rep.Timings.Translate = rep.Timings.XToDV // the edge(s) already exist: nothing to do
		return nil
	}
	t0 = time.Now()
	dr, induced, err := s.Translator.TranslateInsert(dv)
	if err != nil {
		return err
	}
	rep.Timings.DVToDR = time.Since(t0)
	rep.Timings.Translate = rep.Timings.XToDV + rep.Timings.DVToDR
	if err := ctx.Err(); err != nil {
		return err // nothing executed yet: cancellation is clean
	}

	t0 = time.Now()
	if err := s.applyDR(dr); err != nil {
		return err
	}
	// Materialize induced content (children the new base tuples generate
	// under freshly published nodes) from the post-ΔR database.
	for _, ie := range induced {
		croot, err := s.ATG.PublishSubtree(s.DAG, s.DB, ie.ChildType, ie.Attr)
		if err != nil {
			// A failure here is an internal inconsistency, not a user
			// rejection; unwind ΔR too so view and database stay aligned.
			if uerr := undoMutations(s.DB, dr); uerr != nil {
				return fmt.Errorf("core: publishing induced %s%s: %w (and %w)", ie.ChildType, ie.Attr, err, uerr)
			}
			return fmt.Errorf("core: publishing induced %s%s: %w", ie.ChildType, ie.Attr, err)
		}
		s.DAG.AddEdge(ie.Parent, croot)
	}
	rep.DR = dr
	rep.Applied = true
	rep.Timings.Apply = time.Since(t0)
	return nil
}

func (s *System) applyDelete(ctx context.Context, res *xpath.Result, rep *Report) error {
	// Xdelete (Fig.6) is ΔV = Ep(r) itself: the evaluation's fresh edge
	// list, read as is.
	dv := res.Edges
	t0 := time.Now()
	dr, err := s.Translator.TranslateDelete(dv)
	if err != nil {
		return err
	}
	rep.Timings.DVToDR = time.Since(t0)
	rep.Timings.Translate = rep.Timings.DVToDR
	if err := ctx.Err(); err != nil {
		return err // ΔR not executed yet: cancellation is clean
	}

	t0 = time.Now()
	if err := s.applyDR(dr); err != nil {
		return err
	}
	for _, e := range dv {
		s.DAG.RemoveEdge(e.Parent, e.Child)
	}
	rep.DR = dr
	rep.DVDeletes = len(dv)
	rep.Applied = true
	rep.Timings.Apply = time.Since(t0)

	t0 = time.Now()
	cascade, removed := s.DAG.Collect(dv)
	rep.Removed = len(removed)
	rep.DVDeletes += len(cascade)
	rep.Timings.Maintain = time.Since(t0)
	return nil
}

// CheckConsistency verifies the system invariant ΔX(T) = σ(ΔR(I)) over
// every incrementally maintained structure: the DAG must be isomorphic to a
// fresh publication of the current database, and the translator's source
// index must match a rebuild.
func (s *System) CheckConsistency() error {
	metrics().fullChecks.Inc()
	fresh, err := s.ATG.PublishDAG(s.DB)
	if err != nil {
		return fmt.Errorf("core: republish: %w", err)
	}
	if err := EquivalentDAGs(s.DAG, fresh); err != nil {
		return fmt.Errorf("core: view drift: %w", err)
	}
	if err := s.Translator.EqualSources(viewupdate.NewTranslator(s.ATG, s.DB, s.DAG)); err != nil {
		return fmt.Errorf("core: source index drift: %w", err)
	}
	return nil
}

// EquivalentDAGs compares two DAGs up to node identity (type, attribute):
// same node set, same edge set. Nodes are matched through b's Skolem registry
// and edges compared as pairs of b's ids, a parent's children at a time; a
// key is rendered only for the node or edge that fails.
func EquivalentDAGs(a, b *dag.DAG) error {
	keyOf := func(d *dag.DAG, id dag.NodeID) string {
		return d.Type(id) + "(" + d.Attr(id).String() + ")"
	}
	toB := make([]dag.NodeID, a.Cap()) // a's live ids → b's
	for _, id := range a.Nodes() {
		bid, ok := b.Lookup(a.Type(id), a.Attr(id))
		if !ok {
			return fmt.Errorf("node %s missing from republished view", keyOf(a, id))
		}
		toB[id] = bid
	}
	if a.NumNodes() != b.NumNodes() {
		// Every node of a is in b, so b has one that a lacks.
		for _, id := range b.Nodes() {
			if _, ok := a.Lookup(b.Type(id), b.Attr(id)); !ok {
				return fmt.Errorf("node %s missing from maintained view", keyOf(b, id))
			}
		}
	}
	// The node sets are equal, so every edge of b hangs under the image of
	// some node of a: comparing child sets parent by parent covers both.
	var ca, cb []dag.NodeID
	for _, u := range a.Nodes() {
		ca = ca[:0]
		for _, v := range a.Children(u) {
			ca = append(ca, toB[v])
		}
		cb = append(cb[:0], b.Children(toB[u])...)
		slices.Sort(ca)
		slices.Sort(cb)
		for i, j := 0, 0; i < len(ca) || j < len(cb); {
			switch {
			case j == len(cb) || i < len(ca) && ca[i] < cb[j]:
				return fmt.Errorf("edge %s→%s missing from republished view", keyOf(a, u), keyOf(b, ca[i]))
			case i == len(ca) || cb[j] < ca[i]:
				return fmt.Errorf("edge %s→%s missing from maintained view", keyOf(a, u), keyOf(b, cb[j]))
			}
			i, j = i+1, j+1
		}
	}
	return nil
}

// WriteXML serializes the (unfolded) XML view; maxNodes bounds the tree size
// (recursive views can be exponentially larger than their DAG).
func (s *System) WriteXML(w io.Writer, maxNodes int) error {
	tree, err := s.DAG.Unfold(s.DAG.Root(), s.text, maxNodes)
	if err != nil {
		return err
	}
	return tree.WriteXML(w)
}

// XML returns the serialized view, or an error string if it exceeds the
// budget.
func (s *System) XML(maxNodes int) (string, error) {
	var b strings.Builder
	if err := s.WriteXML(&b, maxNodes); err != nil {
		return "", err
	}
	return b.String(), nil
}
