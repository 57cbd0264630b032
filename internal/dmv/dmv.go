// Package dmv detects disguised missing values — placeholders like
// "N/A", "-", "99999" or "xxxx" entered where real data is absent. The
// ANMAT paper cites FAHES [Qahtan et al., KDD 2018] as evidence that
// simple patterns suffice for data cleaning; this package is a
// FAHES-style detector built on the same signature machinery, used to
// pre-filter columns before PFD discovery (a column full of placeholders
// yields junk rules).
//
// Three detection channels:
//
//   - known placeholder syntax: a curated token list plus structural
//     checks (single repeated character, pure punctuation);
//   - repeated-value spikes: a single value that is dramatically more
//     frequent than the column's next values while carrying no pattern
//     information shared with them;
//   - signature outliers: values whose class-run signature is rare in an
//     otherwise signature-homogeneous column (a string in a numeric
//     column, "UNKNOWN" among zip codes).
package dmv

import (
	"slices"
	"sort"
	"strings"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/table"
)

// Suspect is one flagged value with the rows containing it.
type Suspect struct {
	Value  string  `json:"value"`
	Rows   []int   `json:"rows"`
	Reason string  `json:"reason"`
	Score  float64 `json:"score"` // 0–1, higher = more likely a DMV
}

// Options tunes the detector; zero values select the defaults.
type Options struct {
	// SpikeRatio is how many times more frequent than the runner-up a
	// value must be to count as a repeated-value spike (default 10).
	SpikeRatio float64
	// RareSignatureShare is the signature-frequency share below which a
	// value's signature counts as an outlier (default 0.01), provided the
	// dominant signature covers most of the column.
	RareSignatureShare float64
	// DominantSignatureShare is how much of the column the top signature
	// must cover before outlier detection applies (default 0.9).
	DominantSignatureShare float64
}

func (o *Options) defaults() {
	if o.SpikeRatio <= 0 {
		o.SpikeRatio = 10
	}
	if o.RareSignatureShare <= 0 {
		o.RareSignatureShare = 0.01
	}
	if o.DominantSignatureShare <= 0 {
		o.DominantSignatureShare = 0.9
	}
}

// placeholders is the curated list of tokens (lower-cased) that encode
// missing data in the wild.
var placeholders = map[string]bool{
	"n/a": true, "na": true, "n.a.": true, "null": true, "nil": true,
	"none": true, "missing": true, "unknown": true, "unk": true,
	"tbd": true, "tba": true, "undefined": true, "void": true,
	"empty": true, "blank": true, "not available": true, "no data": true,
	"-": true, "--": true, "---": true, "?": true, "??": true, "???": true,
	".": true, "..": true, "...": true, "*": true, "x": true, "xx": true,
	"xxx": true, "xxxx": true,
}

// sentinelNumbers are classic out-of-band numeric placeholders.
var sentinelNumbers = map[string]bool{
	"0000": true, "00000": true, "000000": true,
	"9999": true, "99999": true, "999999": true,
	"9999999999": true, "-1": true, "-99": true, "-999": true, "-9999": true,
}

// IsPlaceholderSyntax reports whether the value's shape alone marks it as
// a placeholder.
func IsPlaceholderSyntax(v string) bool {
	lv := strings.ToLower(strings.TrimSpace(v))
	if lv == "" {
		return true
	}
	if placeholders[lv] || sentinelNumbers[lv] {
		return true
	}
	// A single character repeated ≥ 3 times ("aaaa", "…", "#####").
	rs := []rune(lv)
	if len(rs) >= 3 {
		same := true
		for _, r := range rs[1:] {
			if r != rs[0] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	// Pure punctuation of any length.
	allPunct := true
	for _, r := range rs {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			allPunct = false
			break
		}
	}
	return allPunct
}

// Detect flags suspected disguised missing values in a table column:
// every channel looks at each distinct value once, weighted by its count,
// and only a flagged value's rows are listed. A value the dictionary still
// lists but no row holds is not in the column: it is never a suspect and
// weighs on nothing, and ties are broken by value, never by dictionary
// order.
func Detect(c *table.Interned, opts Options) []Suspect {
	opts.defaults()
	values, counts := c.Dict.Values(), c.Counts()
	present := func(id int) bool { return values[id] != "" && counts[id] > 0 }
	sigs := make([]string, len(values)) // per value ID; "" for a value not present
	sigCounts := make(map[string]int)
	nonEmpty, distinct := 0, 0
	for id, v := range values {
		if !present(id) {
			continue
		}
		nonEmpty += counts[id]
		distinct++
		sigs[id] = pattern.Signature(v)
		sigCounts[sigs[id]] += counts[id]
	}
	if nonEmpty == 0 {
		return nil
	}

	suspects := make(map[int]*Suspect) // by value ID
	flag := func(id int, reason string, score float64) {
		if s, ok := suspects[id]; ok {
			if score > s.Score {
				s.Score = score
				s.Reason = reason
			}
			return
		}
		suspects[id] = &Suspect{Value: values[id], Rows: make([]int, 0, counts[id]), Reason: reason, Score: score}
	}

	// Channel 1: placeholder syntax.
	for id, v := range values {
		if present(id) && IsPlaceholderSyntax(v) {
			flag(id, "placeholder syntax", 0.95)
		}
	}

	// Channel 2: repeated-value spike. A top value dwarfing the runner-up
	// in a high-cardinality column is a default/sentinel (in a 3-value
	// categorical column it is just the majority class, so require many
	// distinct values). Ties rank by value.
	if distinct >= 20 {
		top, second := -1, -1
		before := func(a, b int) bool {
			return b < 0 || counts[a] > counts[b] || (counts[a] == counts[b] && values[a] < values[b])
		}
		for id := range values {
			switch {
			case !present(id):
			case before(id, top):
				top, second = id, top
			case before(id, second):
				second = id
			}
		}
		if n := counts[top]; float64(n) >= opts.SpikeRatio*float64(counts[second]) && n >= 10 {
			flag(top, "repeated-value spike", 0.7)
		}
	}

	// Channel 3: signature outliers in a signature-homogeneous column.
	domSig, domN := "", 0
	for s, n := range sigCounts {
		if n > domN || (n == domN && s < domSig) {
			domSig, domN = s, n
		}
	}
	if float64(domN)/float64(nonEmpty) >= opts.DominantSignatureShare {
		for id, sig := range sigs {
			if !present(id) || sig == domSig {
				continue
			}
			share := float64(sigCounts[sig]) / float64(nonEmpty)
			if share <= opts.RareSignatureShare {
				flag(id, "signature outlier ("+sig+" vs dominant "+domSig+")", 0.6)
			}
		}
	}

	for r, id := range c.IDs {
		if s := suspects[int(id)]; s != nil {
			s.Rows = append(s.Rows, r)
		}
	}
	out := make([]Suspect, 0, len(suspects))
	for _, s := range suspects {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// CleanColumn returns the column's value list — indexed by dictionary ID,
// as c.Dict.Values() is — with the suspected DMVs blanked (set to ""),
// plus the suspects; read through it, the column's IDs show discovery a
// column without those cells, keeping placeholder tokens out of mined
// rules. With no suspect the list is the dictionary's own.
func CleanColumn(c *table.Interned, opts Options) ([]string, []Suspect) {
	suspects := Detect(c, opts)
	if len(suspects) == 0 {
		return c.Dict.Values(), nil
	}
	cleaned := slices.Clone(c.Dict.Values())
	for _, s := range suspects {
		id, _ := c.Dict.Lookup(s.Value) // a suspect is a value of the column
		cleaned[id] = ""
	}
	return cleaned, suspects
}
