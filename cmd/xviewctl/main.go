// xviewctl is an interactive shell over a published XML view: run XPath
// queries and XML updates (translated to relational updates per the paper)
// against the registrar example or a synthetic dataset.
//
// Usage:
//
//	xviewctl [-dataset registrar|synthetic] [-nc 1000] [-force] [-e "<cmd>"]
//	         [-serve <addr>]
//
// With -serve the view is exposed over HTTP instead of the REPL: xviewctl
// starts the xviewd daemon's handler in-process, so both front ends share
// one dispatch path (the server package's Engine + NewHandler).
//
// Commands (one per line on stdin, or semicolon-separated via -e):
//
//	query <xpath>                  evaluate and list r[[p]]
//	insert <type>(f=v, ...) into <xpath>
//	delete <xpath>
//	begin                          open an atomic transaction; insert/delete
//	                               now stage speculatively (query reads the
//	                               staged state)
//	stage <insert|delete stmt>     explicit staging form of the above
//	commit | rollback              finish the transaction (all-or-nothing)
//	tx                             staged-transaction status
//	xml                            print the (unfolded) view
//	stats                          view + auxiliary structure statistics
//	check                          verify ΔX(T) = σ(ΔR(I)) and index health
//	tables                         row counts of the base relations
//	wal inspect <dir>              list a durability directory: checkpoints,
//	                               log segments, per-record sizes and state
//	                               digests (offline, read-only)
//	checkpoint <dir>               describe the newest readable checkpoint —
//	                               the sealed epoch a recovery would boot from
//	verify <dir>                   restore what a recovery of the directory
//	                               would serve (under -dataset's ATG) and run
//	                               the full consistency check on it: the
//	                               ground truth a reopen no longer pays for
//	                               (offline, read-only)
//	metrics <addr>                 scrape a running daemon's /metrics and
//	                               summarize every family (counters, gauges,
//	                               histogram p50/p95/p99)
//	slow <addr>                    dump a running daemon's slow-query/commit
//	                               ring buffer (/debug/slow)
//	health <addr>                  probe a running daemon's /healthz and
//	                               render its serving state; as a one-shot
//	                               command the exit code scripts cleanly:
//	                               0 ready, 2 starting/checkpointing,
//	                               3 degraded (read-only), 1 errors
//	repl status <addr>             probe a node's /repl/info: primaries
//	                               report the durable watermark and oldest
//	                               streamable generation, followers their
//	                               lag; one-shot exit codes: 0 caught up or
//	                               primary, 3 lagging beyond the follow
//	                               watermark, 1 errors
//	help | quit
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rxview"
	"rxview/server"
)

var (
	dataset = flag.String("dataset", "registrar", "registrar or synthetic")
	nc      = flag.Int("nc", 1000, "synthetic dataset size |C|")
	seed    = flag.Int64("seed", 42, "synthetic generator seed")
	force   = flag.Bool("force", false, "carry out updates with XML side effects (revised semantics)")
	exec    = flag.String("e", "", "one-shot mode: execute the given command(s) (semicolon-separated) and exit")
	serve   = flag.String("serve", "", "serve the view over HTTP on this address (xviewd's handler in-process) instead of the REPL")
)

func main() {
	flag.Parse()
	view, err := open()
	if err != nil {
		log.Fatal(err)
	}

	if *serve != "" {
		log.Printf("xviewctl: %s view loaded — %s", *dataset, view.Stats())
		eng := server.New(view)
		log.Printf("xviewctl: serving on %s", *serve)
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		h := server.NewHandler(eng, server.HandlerOptions{Timeout: 10 * time.Second})
		if err := server.Serve(ctx, *serve, h, eng.Close); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *exec != "" {
		if err := runOneShot(view, os.Stdout, *exec); err != nil {
			fatal(err)
		}
		return
	}

	// Positional arguments are a single one-shot command, so subcommand
	// invocations (`xviewctl metrics :8080`, `xviewctl wal inspect dir`)
	// work without -e instead of being silently ignored.
	if flag.NArg() > 0 {
		if err := runOneShot(view, os.Stdout, strings.Join(flag.Args(), " ")); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("rxview: %s view loaded — %s\n", *dataset, view.Stats())
	fmt.Println(`type "help" for commands`)
	if err := runREPL(view, os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// fatal exits with a command's scripting exit code when it carries one
// (health reports 2/3 for not-ready/degraded), the generic failure 1
// otherwise.
func fatal(err error) {
	var xe *exitCodeError
	if errors.As(err, &xe) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(xe.code)
	}
	log.Fatal(err)
}

// session is one REPL/one-shot conversation: the view plus the transaction
// currently being staged, if any.
type session struct {
	view *rxview.View
	tx   *rxview.Tx
}

// finish abandons an open transaction at end of input, restoring the
// pre-Begin state — an unfinished group must not half-exist.
func (s *session) finish(out io.Writer) {
	if s.tx == nil {
		return
	}
	_ = s.tx.Rollback()
	s.tx = nil
	fmt.Fprintln(out, "  open transaction rolled back (no commit before end of input)")
}

// runOneShot executes the -e argument: semicolon-separated commands, stopping
// at the first failure. An uncommitted transaction is rolled back at the end.
func runOneShot(view *rxview.View, out io.Writer, cmds string) error {
	s := &session{view: view}
	defer s.finish(out)
	for _, cmd := range splitCommands(cmds) {
		if err := s.dispatch(out, cmd); err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
	}
	return nil
}

// runREPL reads commands line by line until EOF or quit. Command failures
// are reported to out and the loop continues; a reader (scanner) failure
// ends the loop and is returned. An uncommitted transaction is rolled back
// on exit.
func runREPL(view *rxview.View, in io.Reader, out io.Writer) error {
	s := &session{view: view}
	defer s.finish(out)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, prompt(s))
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := s.dispatch(out, line); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	return nil
}

// prompt reminds the user when commands stage into an open transaction.
func prompt(s *session) string {
	if s.tx != nil {
		return "tx> "
	}
	return "> "
}

// splitCommands splits a -e argument on semicolons, except inside quoted
// strings — the XPath grammar accepts both '...' and "..." literals, and
// update statements take arbitrary quoted values.
func splitCommands(s string) []string {
	var out []string
	var quote rune // the open quote character, or 0
	start := 0
	flush := func(end int) {
		if cmd := strings.TrimSpace(s[start:end]); cmd != "" {
			out = append(out, cmd)
		}
	}
	for i, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			}
		case r == '"' || r == '\'':
			quote = r
		case r == ';':
			flush(i)
			start = i + 1
		}
	}
	flush(len(s))
	return out
}

func open() (*rxview.View, error) {
	var opts []rxview.Option
	if *force {
		opts = append(opts, rxview.WithForceSideEffects())
	}
	atg, db, err := openDataset()
	if err != nil {
		return nil, err
	}
	return rxview.Open(atg, db, opts...)
}

// openDataset builds the ATG and a freshly seeded database of -dataset.
func openDataset() (*rxview.ATG, *rxview.DB, error) {
	switch *dataset {
	case "registrar":
		return rxview.NewRegistrar()
	case "synthetic":
		syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: *nc, Seed: *seed})
		if err != nil {
			return nil, nil, err
		}
		return syn.ATG, syn.DB, nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", *dataset)
	}
}

func (s *session) dispatch(out io.Writer, line string) error {
	ctx := context.Background()
	view := s.view
	switch {
	case line == "help":
		fmt.Fprintln(out, `  query <xpath>
  insert <type>(field=value, ...) into <xpath>
  delete <xpath>
  begin | stage <stmt> | commit | rollback | tx
  xml | stats | check | tables | quit
  wal inspect <dir> | checkpoint <dir> | verify <dir>
  metrics <addr> | slow <addr> | health <addr>
  repl status <addr>`)
		return nil
	case line == "begin":
		if s.tx != nil {
			return fmt.Errorf("a transaction is already open (%d staged); commit or rollback first", len(s.tx.Reports()))
		}
		tx, err := view.Begin(ctx)
		if err != nil {
			return err
		}
		s.tx = tx
		fmt.Fprintln(out, "  transaction open: insert/delete now stage speculatively; query reads staged state")
		return nil
	case line == "commit":
		if s.tx == nil {
			return fmt.Errorf("no open transaction (begin first)")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Commit(ctx); err != nil {
			// Only a group rejection (the Validate error) guarantees the
			// clean unwind; any other commit error speaks for itself — an
			// unwind failure explicitly means state was NOT restored.
			if verr := tx.Validate(); verr != nil && err == verr {
				fmt.Fprintln(out, "  rejected: all staged updates rolled back")
			}
			return err
		}
		fmt.Fprintf(out, "  committed: %d update(s) applied atomically, generation now %d\n",
			tx.Applied(), view.Generation())
		return nil
	case line == "rollback":
		if s.tx == nil {
			return fmt.Errorf("no open transaction (begin first)")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Rollback(); err != nil {
			return err
		}
		fmt.Fprintln(out, "  rolled back: view and database restored to pre-begin state")
		return nil
	case line == "tx":
		if s.tx == nil {
			fmt.Fprintln(out, "  no open transaction")
			return nil
		}
		reps := s.tx.Reports()
		fmt.Fprintf(out, "  open transaction: %d staged, %d applied\n", len(reps), s.tx.Applied())
		for _, rep := range reps {
			state := "no-op"
			if rep.Applied {
				state = "staged"
			}
			fmt.Fprintf(out, "    [%s] %s\n", state, rep.Op)
		}
		if err := s.tx.Validate(); err != nil {
			fmt.Fprintln(out, "  DOOMED (commit will roll back):", err)
		}
		return nil
	case line == "xml":
		xml, err := view.XML(200000)
		if err != nil {
			return err
		}
		fmt.Fprint(out, xml)
		return nil
	case line == "stats":
		fmt.Fprintln(out, " ", view.Stats())
		return nil
	case line == "check":
		if s.tx != nil {
			return fmt.Errorf("check is unavailable inside a transaction (it verifies committed state; commit or roll back first)")
		}
		if err := view.CheckConsistency(); err != nil {
			return err
		}
		fmt.Fprintln(out, "  consistent: view equals a fresh publication; the source index verified")
		return nil
	case line == "tables":
		for _, t := range view.DB().Tables() {
			fmt.Fprintf(out, "  %-12s %d rows\n", t.Name, t.Rows)
		}
		return nil
	case strings.HasPrefix(line, "wal inspect "):
		return walInspect(out, strings.TrimSpace(strings.TrimPrefix(line, "wal inspect")))
	case strings.HasPrefix(line, "checkpoint "):
		return checkpointDescribe(out, strings.TrimSpace(strings.TrimPrefix(line, "checkpoint")))
	case strings.HasPrefix(line, "verify "):
		return verifyDir(out, strings.TrimSpace(strings.TrimPrefix(line, "verify")))
	case strings.HasPrefix(line, "metrics "):
		return metricsScrape(out, strings.TrimSpace(strings.TrimPrefix(line, "metrics")))
	case strings.HasPrefix(line, "slow "):
		return slowDump(out, strings.TrimSpace(strings.TrimPrefix(line, "slow")))
	case strings.HasPrefix(line, "health "):
		return healthCheck(out, strings.TrimSpace(strings.TrimPrefix(line, "health")))
	case strings.HasPrefix(line, "repl "):
		return replCommand(out, strings.TrimSpace(strings.TrimPrefix(line, "repl")))
	case strings.HasPrefix(line, "query "):
		nodes, err := view.Query(ctx, strings.TrimSpace(strings.TrimPrefix(line, "query")))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %d node(s)\n", len(nodes))
		for i, n := range nodes {
			if i == 20 {
				fmt.Fprintf(out, "  ... and %d more\n", len(nodes)-20)
				break
			}
			fmt.Fprintf(out, "  %s%s\n", n.Type, n.Attr)
		}
		return nil
	case strings.HasPrefix(line, "stage "):
		if s.tx == nil {
			return fmt.Errorf("no open transaction (begin first)")
		}
		return s.execute(ctx, out, strings.TrimSpace(strings.TrimPrefix(line, "stage")))
	case strings.HasPrefix(line, "insert ") || strings.HasPrefix(line, "delete "):
		return s.execute(ctx, out, line)
	default:
		return fmt.Errorf("unknown command %q (try help)", line)
	}
}

// walInspect lists a durability directory: every checkpoint with its
// validity, every log segment with per-record generation and size. It is
// read-only and safe against the live directory of a running process.
func walInspect(out io.Writer, dir string) error {
	if dir == "" {
		return fmt.Errorf("usage: wal inspect <dir>")
	}
	info, err := rxview.InspectWAL(dir)
	if err != nil {
		return err
	}
	if len(info.Checkpoints) == 0 && len(info.Segments) == 0 {
		fmt.Fprintln(out, "  empty durability directory")
		return nil
	}
	for _, c := range info.Checkpoints {
		status := "ok"
		if c.Err != "" {
			status = c.Err
		}
		fmt.Fprintf(out, "  checkpoint gen=%d %s (%d bytes state) digest=%s atg=%s [%s]\n",
			c.Gen, c.Path, c.Bytes, orNone(c.Digest), orNone(c.ATG), status)
	}
	for _, s := range info.Segments {
		var ops, muts, bytes int
		for _, r := range s.Records {
			ops += r.DeltaOps
			muts += r.Mutations
			bytes += r.Bytes
		}
		fmt.Fprintf(out, "  segment start=%d %s: %d record(s), ΔV ops=%d ΔR=%d (%d bytes)\n",
			s.Start, s.Path, len(s.Records), ops, muts, bytes)
		for _, r := range s.Records {
			fmt.Fprintf(out, "    gen=%d ΔV=%d ΔR=%d %d bytes digest=%s\n", r.Gen, r.DeltaOps, r.Mutations, r.Bytes, r.Digest)
		}
		if s.Note != "" {
			fmt.Fprintf(out, "    note: %s\n", s.Note)
		}
	}
	return nil
}

// checkpointDescribe decodes the newest readable checkpoint in a durability
// directory — the sealed epoch a recovery would boot from.
func checkpointDescribe(out io.Writer, dir string) error {
	if dir == "" {
		return fmt.Errorf("usage: checkpoint <dir>")
	}
	det, err := rxview.InspectCheckpoint(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  checkpoint %s\n", det.Path)
	fmt.Fprintf(out, "  sealed at generation %d (%d bytes state, format version %d)\n", det.Gen, det.StateBytes, det.Version)
	fmt.Fprintf(out, "  state digest %s, written under ATG %s\n", det.Digest, det.ATG)
	fmt.Fprintf(out, "  DAG: %d live node(s) of %d, %d edge(s)\n",
		det.LiveNodes, det.Nodes, det.Edges)
	for _, t := range det.Tables {
		fmt.Fprintf(out, "  %-12s %d rows\n", t.Name, t.Rows)
	}
	return nil
}

// orNone renders a stamp an unreadable checkpoint does not have.
func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// verifyDir is the operator's ground-truth check of a durability directory:
// restore what a recovery would serve, under the ATG of -dataset, and hold it
// to a fresh publication of its own base tables.
func verifyDir(out io.Writer, dir string) error {
	if dir == "" {
		return fmt.Errorf("usage: verify <dir>")
	}
	atg, db, err := openDataset()
	if err != nil {
		return err
	}
	gen, d, err := rxview.VerifyDir(atg, db, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  consistent at generation %d, state digest %s: the restored view equals a fresh publication of the restored tables; the source index verified\n", gen, d)
	return nil
}

// execute runs one update statement — directly against the view, or staged
// into the open transaction.
func (s *session) execute(ctx context.Context, out io.Writer, stmt string) error {
	var rep *rxview.Report
	var err error
	verb := "applied"
	if s.tx != nil {
		rep, err = s.tx.Execute(ctx, stmt)
		verb = "staged"
	} else {
		rep, err = s.view.Execute(ctx, stmt)
	}
	if err != nil {
		return err
	}
	if !rep.Applied {
		fmt.Fprintln(out, "  no-op (nothing matched or edge already present)")
		return nil
	}
	fmt.Fprintf(out, "  %s: |r[[p]]|=%d |Ep|=%d ΔV+%d/-%d gc=%d side-effects=%v\n",
		verb, rep.Targets, rep.Edges, rep.DVInserts, rep.DVDeletes, rep.Removed, rep.SideEffects)
	for _, m := range rep.Changes {
		fmt.Fprintln(out, "  ΔR:", m)
	}
	fmt.Fprintf(out, "  timings: eval=%v translate=%v apply=%v maintain=%v\n",
		rep.Timings.Eval, rep.Timings.Translate, rep.Timings.Apply, rep.Timings.Maintain)
	return nil
}
