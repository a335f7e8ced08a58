package rxview

// AwaitCheckpoint waits until no checkpoint file is being written behind the
// writer and its verdict has been collected: the sync point of the external
// tests that look at a durability directory, or at a warning, right after a
// commit that checkpoints. Writer-goroutine only, like every View method.
func (v *View) AwaitCheckpoint() { v.reapCheckpoint(true) }

// LandedCheckpoint returns the generation of the newest checkpoint the view
// knows to have landed.
func (v *View) LandedCheckpoint() uint64 { return v.ckptGen }
