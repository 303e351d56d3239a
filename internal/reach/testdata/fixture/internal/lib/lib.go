// Package lib holds one declaration per case of the analysis.
package lib

import "fmt"

// Shape is an in-module interface: a method of a reached type that shares
// a name with one of its methods is reached, called statically or not.
type Shape interface{ Area() float64 }

// Square.Area is reached only through Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter has no caller and matches no interface.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Level is printed by the program; its String is reached through
// fmt.Stringer without a static reference.
type Level int

const Warn Level = 1

// Unused is a constant nothing names.
const Unused Level = 2

func (l Level) String() string { return fmt.Sprintf("level-%d", int(l)) }

// Counter.Inc is reached as a method value.
type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

// Hooks stores a function in a struct field; done is reached through it.
type Hooks struct{ OnDone func() }

func NewHooks() Hooks { return Hooks{OnDone: done} }

func done() {}

// Map is generic and instantiated from the program.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Hidden is reached through the API package's alias; Secret is not.
type Hidden struct{}

func (Hidden) Secret() {}

// ViaAPI is reached from an exported function of the API package.
func ViaAPI() string { return "v1" }

// OnlyFromUnusedMain is reached from a program's unreferenced function.
func OnlyFromUnusedMain() {}

// OnlyTested has a caller in lib_test.go and nowhere else.
func OnlyTested() int { return 1 }

// Deferred is what the fixture's tests name as a deferred root: unreached
// without the entry, and with it usedByDeferred is reached through it.
func Deferred() { usedByDeferred() }

func usedByDeferred() {}

// An initialiser runs whether or not anything reads the variable: table is
// unreached, buildTable is reached.
var table = buildTable()

func buildTable() []int { return []int{1} }

func init() { fromInit() }

func fromInit() {}

// A compile-time assertion keeps nothing alive: Asserted and its method are
// unreached.
type Asserted struct{}

func (Asserted) Area() float64 { return 0 }

var _ Shape = Asserted{}
