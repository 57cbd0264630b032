// A minimal parser for the Prometheus text exposition format — enough
// to round-trip what Render emits. It backs the rendering tests (every
// exposed line must parse back to the value that produced it) and the
// benchmark client, which reads each process's /metrics over HTTP.
package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one parsed series sample.
type Sample struct {
	Name   string // includes _bucket/_sum/_count suffixes for histograms
	Labels map[string]string
	Value  float64
}

// Families maps family name to declared TYPE ("counter", "gauge",
// "histogram", "untyped").
type Families map[string]string

// ParseText parses a Prometheus text exposition payload into samples
// plus the declared family types. Unknown or malformed lines are an
// error — the round-trip tests use this strictness to pin the renderer.
func ParseText(text string) ([]Sample, Families, error) {
	var samples []Sample
	fams := make(Families)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("obs: line %d: malformed TYPE: %q", ln+1, line)
			}
			fams[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
		samples = append(samples, s)
	}
	return samples, fams, nil
}

// parseSample parses `name{k="v",...} value` (labels optional).
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value: %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name: %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("%v: %q", err, line)
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A timestamp field after the value is permitted by the format; the
	// renderer never emits one, so a second field here is an error.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields: %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %q", rest, line)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block, handling escaped label
// values, returning the remainder of the line after the closing brace.
func parseLabels(in string) (map[string]string, string, error) {
	labels := map[string]string{}
	rest := in[1:] // past '{'
	for {
		rest = strings.TrimLeft(rest, ", ")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("label without =")
		}
		name := strings.TrimSpace(rest[:eq])
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label value not quoted")
		}
		rest = rest[1:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, "", fmt.Errorf("unterminated label value")
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return nil, "", fmt.Errorf("dangling escape")
				}
				e := rest[0]
				rest = rest[1:]
				switch e {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c", e)
				}
				continue
			}
			val.WriteByte(c)
		}
		labels[name] = val.String()
	}
}

// SumSamples sums the values of every sample with the given name,
// optionally filtered to samples whose labels include all of match.
func SumSamples(samples []Sample, name string, match map[string]string) float64 {
	var sum float64
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			sum += s.Value
		}
	}
	return sum
}
