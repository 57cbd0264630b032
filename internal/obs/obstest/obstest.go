// Package obstest reads the process registry, obs.Default, back the way
// a scrape of /metrics does: through its rendering and obs.ParseText.
// Nothing outside test files imports it.
package obstest

import (
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/obs"
)

// Text renders obs.Default.
func Text() string {
	var sb strings.Builder
	obs.Default.Render(&sb)
	return sb.String()
}

// Value sums the samples of obs.Default named name whose labels include
// match (nil: every series of the name).
func Value(t testing.TB, name string, match map[string]string) float64 {
	t.Helper()
	samples, _, err := obs.ParseText(Text())
	if err != nil {
		t.Fatal(err)
	}
	return obs.SumSamples(samples, name, match)
}
