package rxview

// LandedCheckpoint returns the generation of the newest checkpoint the view
// knows to have landed.
func (v *View) LandedCheckpoint() uint64 { return v.ckptGen }
