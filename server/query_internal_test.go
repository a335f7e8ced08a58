package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"rxview"
)

// TestQueryHitIsTheMissResponse holds a memo hit over HTTP to the response
// writeJSON writes for the same state: over the registrar and a synthetic
// view, for each path the second POST /query — a hit, served from the body
// the first one stored — has the first one's status, headers and body, and
// both are writeJSON's encoding of a fresh Snapshot.Query at that
// generation. After one commit the next /query answers the new generation
// and count, never the old epoch's body.
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
		commit rxview.Update
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
			commit: rxview.Insert(`//course[cno="CS650"]/takenBy`, "student", rxview.Str("SQ1"), rxview.Str("Hit")),
		},
		{
			name: "synthetic", atg: syn.ATG, db: syn.DB,
			paths: []string{
				`//C`,
				fmt.Sprintf(`//C[key="%d"]/sub/C`, root),
				`//C[val="v1"]`,
				fmt.Sprintf(`//C[key="%d"]`, fresh),
			},
			commit: rxview.Insert(fmt.Sprintf(`//C[key="%d"]/sub`, root), "C", rxview.Int(fresh), rxview.Str("w")),
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

			check := func(path string) {
				t.Helper()
				hits := e.met.memoHits.Value()
				miss := postQuery(h, path)
				hit := postQuery(h, path)
				want := writtenByWriteJSON(ctx, e.Snapshot(), path)
				if miss.Code == http.StatusOK && e.met.memoHits.Value() != hits+1 {
					t.Fatalf("%s: the second /query was not a memo hit", path)
				}
				for _, got := range []*httptest.ResponseRecorder{miss, hit} {
					if got.Code != want.Code || !equalHeaders(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%s: answered %d %v %q, writeJSON writes %d %v %q", path,
							got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
					}
				}
			}
			for _, p := range tc.paths {
				check(p)
			}
			gen := e.Generation()
			if rep, err := e.Update(ctx, tc.commit); err != nil || !rep.Applied {
				t.Fatalf("commit: rep=%+v err=%v", rep, err)
			}
			if e.Generation() != gen+1 {
				t.Fatalf("generation %d after one commit at %d", e.Generation(), gen)
			}
			for _, p := range tc.paths {
				check(p)
			}
		})
	}
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
