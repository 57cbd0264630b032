package inner

import "fmt"

// Thing is live only as a type the root package aliases.
type Thing struct{}

func (Thing) Name() string { return "thing" }

// Counter.Get is called.
type Counter struct{ n int }

func (c *Counter) Get() int { return c.n }

// Gauge.Get is named like Counter.Get but called by nothing.
type Gauge struct{ n int }

func (g *Gauge) Get() int { return g.n }

// Celsius.String is live only through fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Double is live only as a func value.
func Double(x int) int { return 2 * x }

func Apply(f func(int) int) int { return f(1) }
