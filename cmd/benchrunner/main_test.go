package main

import (
	"bytes"
	"strings"
	"testing"
)

// Each experiment's header line and how many rows follow its column line at
// -sizes 200 -ops 2: one per size, per workload class, per sweep point or
// per ablation.
var wantTables = []struct {
	exp, header string
	rows        int
}{
	{"fig10b", "== Fig.10(b): dataset statistics ==", 1},
	{"fig11del", "== Fig.11: deletions (Fig.11 a–c) — per-op phase times ==", 3},
	{"fig11ins", "== Fig.11: insertions (Fig.11 d–f) — per-op phase times ==", 3},
	{"fig11g", "== Fig.11(g): varying |r[[p]]| / |Ep(r)| at |C| = 200 ==", 7},
	{"fig11h", "== Fig.11(h): varying |ST(A,t)| at |C| = 200, |r[[p]]| = |Ep(r)| = 1 ==", 6},
	{"table1", "== Table 1: incremental maintenance of L and M vs recomputation ==", 1},
	{"ablation", "== Ablations at |C| = 200 ==", 6},
}

// tables splits benchrunner's output into its blank-line-terminated tables.
func tables(t *testing.T, out string) [][]string {
	t.Helper()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("output has a NaN or Inf:\n%s", out)
	}
	var all [][]string
	for _, block := range strings.Split(strings.TrimSpace(out), "\n\n") {
		all = append(all, strings.Split(block, "\n"))
	}
	return all
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchrunner %v: exit status %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

func TestEachExperimentPrintsItsTable(t *testing.T) {
	for _, want := range wantTables {
		t.Run(want.exp, func(t *testing.T) {
			got := tables(t, runOK(t, "-exp", want.exp, "-sizes", "200", "-ops", "2"))
			if len(got) != 1 {
				t.Fatalf("%d tables, want 1", len(got))
			}
			lines := got[0]
			if lines[0] != want.header {
				t.Errorf("header %q, want %q", lines[0], want.header)
			}
			body := lines[1:]
			if want.exp != "ablation" {
				body = body[1:] // the column line
			}
			if len(body) != want.rows {
				t.Errorf("%d rows, want %d:\n%s", len(body), want.rows, strings.Join(lines, "\n"))
			}
		})
	}
}

func TestAllRunsTheSevenInOrder(t *testing.T) {
	got := tables(t, runOK(t, "-sizes", "200", "-ops", "2"))
	if len(got) != len(wantTables) {
		t.Fatalf("%d tables, want %d", len(got), len(wantTables))
	}
	for i, want := range wantTables {
		if got[i][0] != want.header {
			t.Errorf("table %d is %q, want %q", i, got[i][0], want.header)
		}
	}
}

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown experiment printed to stdout:\n%s", stdout.String())
	}
	for _, want := range wantTables {
		if !strings.Contains(stderr.String(), want.exp) {
			t.Errorf("stderr does not list %s:\n%s", want.exp, stderr.String())
		}
	}
	if code := run([]string{"-sizes", "1k"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad -sizes: exit status %d, want 2", code)
	}
}
