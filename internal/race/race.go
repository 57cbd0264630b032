//go:build race

// Package race reports whether the race detector is compiled in, for the
// allocation-count tests: its instrumentation allocates and it disables
// sync.Pool reuse, so allocs/row bounds only hold without it.
package race

// Enabled is true in -race builds.
const Enabled = true
