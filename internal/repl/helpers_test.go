package repl

// Methods only this package's tests call.

// Tail returns the live tail (the durable view's sink publishes into it).
func (s *Source) Tail() *Tail { return s.tail }
