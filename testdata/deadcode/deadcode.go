// Package deadcode is the fixture of the reachability guard's self-test:
// of the methods and functions in inner, only Gauge.Get is dead.
package deadcode

import (
	"fmt"

	"example.com/deadcode/internal/inner"
)

// Thing is public API through this alias, so its exported methods are.
type Thing = inner.Thing

// Run calls Counter.Get, passes Double as a value, and formats a
// Celsius, whose String only fmt calls.
func Run() {
	var c inner.Counter
	fmt.Println(c.Get(), inner.Apply(inner.Double), inner.Celsius(21))
}
