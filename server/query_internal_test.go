package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"rxview"
)

// TestQueryHitIsTheMissResponse holds a memo hit over HTTP to the response
// writeJSON writes for the same state: over the registrar and a synthetic
// view, for each path the second POST /query — a hit, served from the body
// the first one stored — has the first one's status, headers and body, and
// both are writeJSON's encoding of a fresh Snapshot.Query at that
// generation. Then a script of commits runs, and after each the first
// /query of a path is a hit exactly when the publication carried its answer
// (the commit's ΔV missed what it read) — restamped with the new generation,
// and still writeJSON's bytes — and a miss when it was dropped.
func TestQueryHitIsTheMissResponse(t *testing.T) {
	ctx := context.Background()
	syn, err := rxview.NewSynthetic(rxview.SyntheticConfig{NC: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := syn.Roots()[0]
	fresh := syn.FreshKeys(1)[0]
	atg, db, err := rxview.NewRegistrar()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		atg    *rxview.ATG
		db     *rxview.DB
		paths  []string
		script []commitStep
	}{
		{
			name: "registrar", atg: atg, db: db,
			paths: []string{
				`//course`,
				`//course[cno="CS650"]/takenBy/student`,
				`course[cno="CS650"]//course[cno="CS320"]/prereq`,
				`//student[ssn="nobody"]`,
				`//course[`,
			},
			script: []commitStep{
				{rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("SQ1"), rxview.Str("Hit")),
					[]string{`//student[ssn="nobody"]`}},
				{rxview.Delete(`//student[ssn="SQ1"]`),
					[]string{`//student[ssn="nobody"]`}},
			},
		},
		{
			name: "synthetic", atg: syn.ATG, db: syn.DB,
			paths: []string{
				`//C`,
				fmt.Sprintf(`//C[key="%d"]/sub/C`, root),
				`//C[val="v1"]`,
				fmt.Sprintf(`//C[key="%d"]`, fresh),
			},
			// The insert, its delete, and the insert again, which brings
			// the deleted identities back under their old ids.
			script: []commitStep{
				{rxview.Insert(fmt.Sprintf(`//C[key="%d"]/sub`, root), "C", rxview.Int(fresh), rxview.Str("w")),
					[]string{`//C[val="v1"]`}},
				{rxview.Delete(fmt.Sprintf(`//C[key="%d"]`, fresh)),
					[]string{`//C[val="v1"]`}},
				{rxview.Insert(fmt.Sprintf(`//C[key="%d"]/sub`, root), "C", rxview.Int(fresh), rxview.Str("w")),
					[]string{`//C[val="v1"]`}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view, err := rxview.Open(tc.atg, tc.db, rxview.WithForceSideEffects())
			if err != nil {
				t.Fatal(err)
			}
			e := New(view)
			defer e.Close()
			h := NewHandler(e, HandlerOptions{})

			check := func(path string, carried bool) {
				t.Helper()
				hits := e.met.memoHits.Value()
				first := postQuery(h, path)
				if got := e.met.memoHits.Value() - hits; first.Code == http.StatusOK && (got == 1) != carried {
					t.Fatalf("%s at generation %d: first /query a hit: %v, carried: %v", path, e.Generation(), got == 1, carried)
				}
				hit := postQuery(h, path)
				want := writtenByWriteJSON(ctx, e.Snapshot(), path)
				if first.Code == http.StatusOK && e.met.memoHits.Value() != hits+1+b2u(carried) {
					t.Fatalf("%s: the second /query was not a memo hit", path)
				}
				for _, got := range []*httptest.ResponseRecorder{first, hit} {
					if got.Code != want.Code || !equalHeaders(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%s: answered %d %v %q, writeJSON writes %d %v %q", path,
							got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
					}
				}
			}
			for _, p := range tc.paths {
				check(p, false)
			}
			for _, step := range tc.script {
				gen := e.Generation()
				if rep, err := e.Update(ctx, step.u); err != nil || !rep.Applied {
					t.Fatalf("commit %s: rep=%+v err=%v", step.u, rep, err)
				}
				if e.Generation() != gen+1 {
					t.Fatalf("generation %d after one commit at %d", e.Generation(), gen)
				}
				for _, p := range tc.paths {
					check(p, slices.Contains(step.carried, p))
				}
			}
		})
	}
}

// commitStep is one commit of a script and the paths whose memo answers the
// publication after it carries.
type commitStep struct {
	u       rxview.Update
	carried []string
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// postQuery serves one POST /query for path through h.
func postQuery(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	body := `{"path":` + strconv.Quote(path) + `}`
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(body))))
	return rec
}

// writtenByWriteJSON is the response /query wrote before answers were
// memoized as bodies: writeJSON of a queryResponse over a fresh evaluation
// of path on sn, or writeError of its error.
func writtenByWriteJSON(ctx context.Context, sn *rxview.Snapshot, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	nodes, err := sn.Query(ctx, path)
	if err != nil {
		writeError(rec, statusOf(err), err, nil)
		return rec
	}
	writeJSON(rec, http.StatusOK, queryResponse{Generation: sn.Generation(), Count: len(nodes), Nodes: nodes})
	return rec
}

func equalHeaders(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if fmt.Sprint(v) != fmt.Sprint(b[k]) {
			return false
		}
	}
	return true
}
