package ckpt

import (
	"testing"
	"unsafe"

	"rxview/internal/core"
	"rxview/internal/workload"
)

// TestIndexBound: the index a view keeps between checkpoints is a few
// kilobytes — 16 bytes a range, a range per 256 rows or nodes — against a
// payload of megabytes: at most 64 KB at |C| = 5000.
func TestIndexBound(t *testing.T) {
	syn, err := workload.NewSynthetic(workload.SyntheticConfig{NC: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(syn.ATG, syn.DB, core.Options{ForceSideEffects: true})
	if err != nil {
		t.Fatal(err)
	}
	buf, ix := Encode(State{Gen: s.Generation(), ATG: s.ATG.Fingerprint(), DB: s.DB, DAG: s.DAG}, nil)
	ix.Landed(t.TempDir()+"/ckpt", 0)
	size := int(unsafe.Sizeof(*ix)) + len(ix.path) +
		cap(ix.rels)*int(unsafe.Sizeof(ix.rels[0])) +
		cap(ix.spans)*int(unsafe.Sizeof(span{})) +
		cap(ix.sections)*int(unsafe.Sizeof(ix.sections[0]))
	t.Logf("an index of %d ranges takes %d bytes, for a payload of %d", len(ix.spans), size, len(buf))
	if size > 64<<10 {
		t.Fatalf("the index takes %d bytes at |C| = 5000, more than 64 KB", size)
	}
}
