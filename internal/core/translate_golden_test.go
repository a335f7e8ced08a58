package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rxview/internal/testkit"
	"rxview/internal/workload"
)

var rewriteGolden = flag.Bool("golden", false, "rewrite testdata/translations.golden from the current translator")

// registrarInserts are the registrar statements the translator's answers are
// pinned on: fresh subtrees, existing subtrees hung elsewhere, XML and
// relational side effects, induced content and untranslatable requests, in an
// order where earlier ones set up later ones.
var registrarInserts = []string{
	`insert course(cno="CS111", title="Intro") into .`,
	`insert course(cno="CS111", title="Intro") into //course[cno="CS320"]/prereq`,
	`insert course(cno="CS112", title="Intro II") into //course[cno="CS111"]/prereq`,
	`insert student(ssn="S08", name="Hal") into //course[cno="CS111"]/takenBy`,
	`insert student(ssn="S09", name="Ida") into //course[cno="CS112"]/takenBy`,
	`insert student(ssn="S09", name="Zoe") into //course[cno="CS320"]/prereq`,
	`insert student(ssn="S03", name="Cid") into //course[cno="CS240"]/takenBy`,
	`insert student(ssn="S01", name="Ann") into //course[cno="CS650"]/takenBy`,
	`delete //course[cno="CS320"]/prereq/course[cno="CS240"]`,
	`insert course(cno="CS240", title="Algorithms") into course[cno="CS650"]//course[cno="CS320"]/prereq`,
	`insert course(cno="CS240X", title="X") into course[cno="CS650"]//course[cno="CS320"]/prereq`,
	`insert course(cno="CS777", title="Sharing") into course[cno="CS650"]//course[cno="CS320"]/prereq`,
	`insert course(cno="CS490", title="Compilers") into //course[cno="CS650"]/prereq`,
	`insert course(cno="CS100", title="Intro") into //course[cno="CS490"]/prereq`,
	`insert course(cno="CS888", title="X") into //course[cno="CS999"]/prereq`,
	`insert course(cno="CS901", title="A") into .`,
	`insert course(cno="CS902", title="B") into .`,
	`insert course(cno="EE100", title="Circuits") into .`,
	`delete //course[cno="CS111"]`,
	`insert course(cno="CS111", title="Intro") into .`,
}

// TestTranslatorAnswersUnchanged pins what Algorithm insert answers — each
// accepted insert's ΔR as a set, each rejection's message — over the
// FuzzTxnGroup seed corpus, the registrar statements above and the synthetic
// W1 and W2 insert workloads, against testdata/translations.golden. Updates
// run one at a time with side effects forced, so every insert reaches the
// translator. Run with -golden to rewrite the file.
func TestTranslatorAnswersUnchanged(t *testing.T) {
	var out bytes.Buffer
	run := func(s *System, stmt string) {
		t.Helper()
		rep, err := s.Execute(stmt)
		if !strings.HasPrefix(stmt, "insert") {
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			return
		}
		fmt.Fprintf(&out, "%s\n", stmt)
		switch {
		case err != nil:
			fmt.Fprintf(&out, "\trejected: %v\n", err)
		case !rep.Applied:
			fmt.Fprintf(&out, "\tno-op\n")
		default:
			dr := make([]string, len(rep.DR))
			for i, m := range rep.DR {
				dr[i] = m.String()
			}
			slices.Sort(dr)
			for _, m := range dr {
				fmt.Fprintf(&out, "\t%s\n", m)
			}
		}
	}

	for i, seed := range txnGroupSeeds {
		fmt.Fprintf(&out, "# FuzzTxnGroup seed %d\n", i)
		s := openRegistrar(t, Options{ForceSideEffects: true})
		for _, st := range parseTxnScript(seed).stages {
			run(s, st.stmt)
		}
	}

	fmt.Fprintf(&out, "# registrar\n")
	s := openRegistrar(t, Options{ForceSideEffects: true})
	for _, stmt := range registrarInserts {
		run(s, stmt)
	}

	for _, class := range []workload.Class{workload.W1, workload.W2} {
		fmt.Fprintf(&out, "# synthetic %s\n", class)
		syn := testkit.Must(workload.NewSynthetic(workload.SyntheticConfig{NC: 300, Seed: 7}))
		s, err := Open(syn.ATG, syn.DB, Options{ForceSideEffects: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range syn.InsertWorkload(class, 24, 11) {
			run(s, op.Stmt)
		}
	}

	path := filepath.Join("testdata", "translations.golden")
	if *rewriteGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("translations differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("translations differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
