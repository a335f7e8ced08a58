package viewupdate

import "rxview/internal/dag"

// Methods only this package's tests call.

// Updatable decides the SPJ view updatability problem for group deletions
// (Theorem 1: PTIME) without constructing ΔR.
func (tr *Translator) Updatable(dv []dag.Edge) bool {
	_, err := tr.TranslateDelete(dv)
	return err == nil
}
