// Package lib holds one declaration of each kind the checker must tell
// apart.
package lib

// Shape is an interface declared in the tree.
type Shape interface{ Area() int }

// Square is reached from the API.
type Square struct{}

// Area is reached only through Shape: not reported.
func (Square) Area() int { return 4 }

// Perimeter is an unreached method: reported.
func (Square) Perimeter() int { return 16 }

var table = build()

// build is a package var initializer's callee: not reported.
func build() map[string]int { return map[string]int{"square": 1} }

func init() { register() }

// register is reached from an init: not reported.
func register() { table["init"] = 2 }

// Measure is reached from the API.
func Measure(s Shape) int { return s.Area() * table["square"] }

// Dead is an unreached func: reported.
func Dead() {}

// OnlyTests is called by a _test.go file alone: reported.
func OnlyTests() int { return 1 }
