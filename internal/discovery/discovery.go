// Package discovery implements the Discover PFDs algorithm of Figure 2:
// profile the table to obtain pruned candidate dependencies, build a
// hash-based inverted list of LHS tokens/n-grams paired with RHS values,
// apply a decision function f to each entry, fold accepted entries into
// pattern tuples, and keep the PFDs whose tableau coverage meets γ.
package discovery

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"github.com/anmat/anmat/internal/dmv"
	"github.com/anmat/anmat/internal/invlist"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// Mode selects how LHS values are decomposed into inverted-list keys.
type Mode uint8

const (
	// ModeAuto picks per candidate: token mode for Text LHS columns,
	// n-gram/prefix mode for Code and Category LHS columns.
	ModeAuto Mode = iota
	// ModeTokens forces Tokenize (Figure 2 line 6, first alternative).
	ModeTokens
	// ModeNGrams forces NGrams/prefixes (second alternative; "n-grams are
	// mainly used to extract patterns from attributes that contain [a]
	// single token which could be a code or id").
	ModeNGrams
)

// Config carries the two user parameters of Section 4 plus the structural
// knobs of the algorithm.
type Config struct {
	// MinCoverage is γ: the minimum fraction of LHS records matching at
	// least one tableau pattern for the PFD to be reported.
	MinCoverage float64
	// MaxViolationRatio is the tolerated fraction of supporting tuples
	// that disagree with a rule ("since we assume the data is dirty, we
	// tolerate a specific ratio of violations").
	MaxViolationRatio float64
	// MinSupport is the minimum number of distinct tuples an inverted-
	// list entry needs before f considers it.
	MinSupport int
	// Mode selects token vs n-gram decomposition.
	Mode Mode
	// NGramN is the n-gram length for mid-value patterns (default 3).
	NGramN int
	// MaxPrefix bounds the prefix lengths indexed in n-gram mode
	// (default 8).
	MaxPrefix int
	// Decision overrides the default decision function f when non-nil.
	Decision DecisionFunc
	// MineVariable enables mining wildcard (variable) rows in addition
	// to constant rows.
	MineVariable bool
	// Parallelism bounds the number of candidate dependencies mined
	// concurrently (0 = GOMAXPROCS). Candidates are independent, so the
	// result is identical to the serial run.
	Parallelism int
	// CleanDMVs blanks suspected disguised missing values (N/A, 99999,
	// signature outliers — see internal/dmv) before mining, keeping
	// placeholder tokens out of rules and out of rule support counts.
	CleanDMVs bool
}

// IsZero reports whether every field of the config is zero (Config holds
// a func field, so == is unavailable). Kept next to the field list so a
// new field is added here too.
func (c Config) IsZero() bool {
	return c.MinCoverage == 0 && c.MaxViolationRatio == 0 && c.MinSupport == 0 &&
		c.Mode == ModeAuto && c.NGramN == 0 && c.MaxPrefix == 0 &&
		c.Decision == nil && !c.MineVariable && c.Parallelism == 0 && !c.CleanDMVs
}

// Default returns the configuration used by the demo scenarios: γ = 5%,
// 2% tolerated violations, support ≥ 4.
func Default() Config {
	return Config{
		MinCoverage:       0.05,
		MaxViolationRatio: 0.02,
		MinSupport:        4,
		Mode:              ModeAuto,
		NGramN:            3,
		MaxPrefix:         8,
		MineVariable:      true,
	}
}

// variableKeyFraction is the fraction of keys of a family that must
// individually look functional for a variable row to be emitted.
const variableKeyFraction = 0.9

// DecisionFunc is the function f of Figure 2: it inspects one inverted-
// list entry and decides whether the entry forms a pattern tuple.
type DecisionFunc func(invlist.Entry) bool

// defaultDecision accepts entries with enough distinct-tuple support whose
// majority RHS explains at least 1 − MaxViolationRatio of the support.
func (c Config) defaultDecision() DecisionFunc {
	return func(e invlist.Entry) bool {
		if e.Support < c.MinSupport {
			return false
		}
		return e.Confidence() >= 1-c.MaxViolationRatio
	}
}

// Result pairs the discovered PFDs with per-candidate diagnostics.
type Result struct {
	PFDs []*pfd.PFD
	// Stats records, per candidate dependency, how many inverted-list
	// entries were examined and accepted.
	Stats []CandidateStats
}

// CandidateStats is the per-candidate diagnostic record.
type CandidateStats struct {
	Candidate profile.Candidate
	Entries   int
	Accepted  int
	Coverage  float64
	Kept      bool
}

// Discover runs the full Figure 2 algorithm over every candidate
// dependency of the table. A caller that already holds the profile of t
// as it is now (a session that ran its profile stage) passes it as tp;
// with tp nil, discovery profiles t itself. ctx is checked before each
// candidate dependency and periodically inside each column's key index
// build and each candidate's entry scan, so a cancelled mining run stops
// within a bounded amount of work and returns an error wrapping ctx.Err().
func Discover(ctx context.Context, t *table.Table, tp *profile.TableProfile, cfg Config) (*Result, error) {
	if cfg.NGramN <= 0 {
		cfg.NGramN = 3
	}
	if cfg.MaxPrefix <= 0 {
		cfg.MaxPrefix = 8
	}
	f := cfg.Decision
	if f == nil {
		f = cfg.defaultDecision()
	}

	// The table's columns are dictionary-coded as they stand; profiling,
	// every candidate's inverted list and every coverage count work per
	// distinct value on them.
	if tp == nil {
		own := profile.ProfileTable(t)
		tp = &own
	}
	cands := profile.Candidates(*tp)
	cols := make([]*column, t.NumCols())
	type job struct {
		idx *lhsIndex
		rhs *column
	}
	jobs := make([]job, len(cands))
	type cutKey struct {
		col    int
		tokens bool
	}
	idxs := map[cutKey]*lhsIndex{}
	for c, cand := range cands {
		var side [2]int
		for i, name := range [2]string{cand.LHS, cand.RHS} {
			col, ok := t.ColIndex(name)
			if !ok {
				return nil, fmt.Errorf("table %q: no column %q", t.Name(), name)
			}
			if cols[col] == nil {
				cols[col] = columnOf(t.InternedColumn(col), cfg.CleanDMVs)
			}
			side[i] = col
		}
		k := cutKey{side[0], tokenModeFor(cand, cfg.Mode)}
		x := idxs[k]
		if x == nil {
			x = &lhsIndex{col: cols[k.col], cut: cutOf(cfg, k.tokens)}
			idxs[k] = x
		}
		x.left.Add(1)
		jobs[c] = job{x, cols[side[1]]}
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}

	type outcome struct {
		p     *pfd.PFD
		stats CandidateStats
		err   error
	}
	outs := make([]outcome, len(cands))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					outs[i] = outcome{err: err}
					continue
				}
				j := jobs[i]
				var o outcome
				idx, err := j.idx.get(ctx)
				if err == nil {
					o.p, o.stats, err = discoverCandidate(ctx, t.Name(), cands[i], j.idx.col, j.rhs, idx, cfg, f)
				}
				o.err = err
				outs[i] = o
				j.idx.done()
			}
		}()
	}
feed:
	for i := range cands {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("discovery cancelled: %w", err)
	}

	res := &Result{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		res.Stats = append(res.Stats, o.stats)
		if o.p != nil {
			res.PFDs = append(res.PFDs, o.p)
		}
	}
	return res, nil
}

// column is a table column as mining reads it: the table's IDs, the values
// they stand for — the dictionary's, or under CleanDMVs a copy of that
// list with the suspects blank — and the number of rows holding each. The
// list can name values no row holds, and more than one blank.
type column struct {
	invlist.Column
	counts []int
}

func columnOf(iv *table.Interned, cleanDMVs bool) *column {
	c := &column{Column: invlist.Column{Values: iv.Dict.Values(), IDs: iv.IDs}, counts: iv.Counts()}
	if cleanDMVs {
		c.Values, _ = dmv.CleanColumn(iv)
	}
	return c
}

// lhsIndex is the key index of one LHS column, built by the first of its
// candidates to run and dropped when the last one is done.
type lhsIndex struct {
	col  *column
	cut  invlist.Cut
	once sync.Once
	idx  *invlist.Index
	err  error
	left atomic.Int32 // candidates still to use it
}

func (x *lhsIndex) get(ctx context.Context) (*invlist.Index, error) {
	x.once.Do(func() { x.idx, x.err = invlist.NewIndex(ctx, x.col.Column, x.cut) })
	return x.idx, x.err
}

func (x *lhsIndex) done() {
	if x.left.Add(-1) == 0 {
		x.idx = nil
	}
}

// cutOf is how a candidate's LHS values are cut into keys. The default
// decision and the variable-row miner ignore keys below MinSupport, so
// those are never materialised; a custom decision is shown every entry.
func cutOf(cfg Config, useTokens bool) invlist.Cut {
	cut := invlist.Cut{Tokens: useTokens, NGramN: cfg.NGramN, MaxPrefix: cfg.MaxPrefix, MinSupport: cfg.MinSupport}
	if cfg.Decision != nil {
		cut.MinSupport = 0
	}
	return cut
}

// rule is an accepted inverted-list entry on its way to a tableau row,
// with the ascending numbers of its distinct LHS values: the extension
// that de-duplication and subset pruning compare (see invlist).
type rule struct {
	e      invlist.Entry
	values []int32
}

// discoverCandidate mines one A → B candidate over the coded columns.
func discoverCandidate(ctx context.Context, tableName string, cand profile.Candidate, lhs, rhs *column, idx *invlist.Index, cfg Config, f DecisionFunc) (*pfd.PFD, CandidateStats, error) {
	stats := CandidateStats{Candidate: cand}
	tab, err := candidateTableau(ctx, cand, idx, rhs, cfg, f, &stats)
	if err != nil {
		return nil, stats, err
	}
	tab.Minimize()
	tab.Sort()
	if tab.Empty() {
		return nil, stats, nil
	}
	cov := tab.CoverageCounted(lhs.Values, lhs.counts)
	stats.Coverage = cov
	if cov < cfg.MinCoverage {
		return nil, stats, nil
	}
	stats.Kept = true
	p := pfd.New(tableName, cand.LHS, cand.RHS, tab)
	p.Coverage = cov
	p.Source = "discovered"
	return p, stats, nil
}

// candidateTableau builds the candidate's tableau as Figure 2 has it before
// minimization: one constant row per accepted inverted-list entry left by
// the extensional de-duplication, then the variable rows. It fills the
// entry counts of stats.
func candidateTableau(ctx context.Context, cand profile.Candidate, idx *invlist.Index, rhs *column, cfg Config, f DecisionFunc, stats *CandidateStats) (*tableau.Tableau, error) {
	list := invlist.New(idx, rhs.Column)
	entries := list.Entries()
	stats.Entries = list.Keys()

	var accepted []rule
	supporting := 0
	for j, e := range entries {
		// Large candidates can hold millions of entries; a cancelled run
		// must not scan them to completion.
		if j&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !f(e) {
			continue
		}
		accepted = append(accepted, rule{e: e})
		supporting += len(e.Postings)
	}
	stats.Accepted = len(accepted)
	// One arena holds every accepted entry's value list; it is sized up
	// front, so the sub-slices stay valid as it fills.
	arena := make([]int32, 0, supporting)
	for i := range accepted {
		from := len(arena)
		arena = accepted[i].e.Values(arena)
		accepted[i].values = arena[from:len(arena):len(arena)]
	}

	// Extensional dedup: several keys can support exactly the same tuple
	// set with the same RHS (a prefix and the interior n-gram it implies).
	// Keep one rule per (tuple set, RHS): prefixes beat n-grams, then
	// higher specificity wins.
	accepted = dedupeExtensional(accepted)

	// Subset dedup: an entry whose supporting tuples are a subset of a
	// larger accepted entry with the same RHS is extensionally redundant
	// (<CHEMBL30>… adds nothing over <CHEMBL3>… → Protein). Dropping it
	// keeps tableaux the size the paper's Figure 4 shows.
	accepted = dropSubsumedEntries(accepted)

	// Constant rows from accepted entries, highest support first; the
	// rendered LHS breaks ties and is rendered once per row, not once per
	// comparison.
	type sortedRow struct {
		row tableau.Row
		lhs string
	}
	rows := make([]sortedRow, 0, len(accepted))
	for _, r := range accepted {
		q, ok := patternTupleFor(r.e)
		if !ok {
			continue
		}
		rows = append(rows, sortedRow{lhs: q.String(), row: tableau.Row{
			LHS:      q,
			RHS:      r.e.TopRHS,
			Support:  r.e.Support,
			Position: r.e.DominantLHSPos,
		}})
	}
	slices.SortStableFunc(rows, func(a, b sortedRow) int {
		if a.row.Support != b.row.Support {
			return b.row.Support - a.row.Support
		}
		return strings.Compare(a.lhs, b.lhs)
	})
	tab := tableau.New()
	for _, r := range rows {
		tab.Add(r.row)
	}

	// Variable rows: if almost every key of a positional family is
	// individually functional, the family generalizes to a wildcard rule.
	if cfg.MineVariable {
		for _, vr := range mineVariableRows(entries, tokenModeFor(cand, cfg.Mode), cfg) {
			tab.Add(vr)
		}
	}
	return tab, nil
}

// tokenModeFor resolves ModeAuto per candidate.
func tokenModeFor(cand profile.Candidate, m Mode) bool {
	switch m {
	case ModeTokens:
		return true
	case ModeNGrams:
		return false
	default:
		return cand.LHSType == profile.Text
	}
}

// patternTupleFor is line 12 of Figure 2: turn an accepted entry into a
// pattern tuple. The construction depends on the key kind:
//
//   - token at position 0:   <tok\ >\A*        (λ1-style first-token rule)
//   - token at position k>0: \A*\ <tok>\A*     (Table 3 D2-style; when the
//     preceding token always ends with a comma the free prefix becomes
//     \A*,\ to match the paper's rendering)
//   - prefix:                <pre>tail         (tail = LCG of supporting
//     suffixes, e.g. <850>\D{7})
//   - interior n-gram:       \A{pos}<gram>\A*
func patternTupleFor(e invlist.Entry) (pattern.Constrained, bool) {
	text := e.Key.Text
	switch e.Key.Kind {
	case invlist.Token:
		return tokenPatternTuple(e, text)
	case invlist.Prefix:
		return prefixPatternTuple(e, text)
	default:
		if text == "" {
			return pattern.Constrained{}, false
		}
		segs := []pattern.Segment{
			{Pat: pattern.New(pattern.ClassTok(gentreeAll()).WithCount(int(e.Key.Pos)))},
			{Pat: pattern.Literal(text), Constrained: true},
			{Pat: pattern.AnyString()},
		}
		q, err := pattern.NewConstrained(segs...)
		if err != nil {
			return pattern.Constrained{}, false
		}
		return q, true
	}
}

func tokenPatternTuple(e invlist.Entry, tok string) (pattern.Constrained, bool) {
	if tok == "" {
		return pattern.Constrained{}, false
	}
	if e.PosPurity < 0.8 {
		// The token floats between positions; no anchored rule.
		return pattern.Constrained{}, false
	}
	if e.DominantLHSPos == 0 {
		// First-token rule. If every supporting value is exactly the
		// token, constrain the whole value; otherwise token + separator.
		if !slices.ContainsFunc(e.Postings, func(p invlist.Posting) bool { return p.Pos == 0 && e.LHS(p) != tok }) {
			return pattern.WholeValue(pattern.Literal(tok)), true
		}
		q, err := pattern.NewConstrained(
			pattern.Segment{Pat: pattern.Literal(tok + " "), Constrained: true},
			pattern.Segment{Pat: pattern.AnyString()},
		)
		if err != nil {
			return pattern.Constrained{}, false
		}
		return q, true
	}
	// Interior token: free prefix, constrained token, free suffix. Render
	// the paper's `\A*,\ tok\A*` shape when the token always follows a
	// comma-terminated token, and drop the trailing \A* when the token is
	// always value-final (Table 3's `\A*,\ David` row has no tail).
	prefix := pattern.AnyString().Concat(pattern.Literal(" "))
	if alwaysAfterComma(e) {
		prefix = pattern.AnyString().Concat(pattern.Literal(", "))
	}
	segs := []pattern.Segment{
		{Pat: prefix},
		{Pat: pattern.Literal(tok), Constrained: true},
	}
	if !alwaysValueFinal(e, tok) {
		segs = append(segs, pattern.Segment{Pat: pattern.AnyString()})
	}
	q, err := pattern.NewConstrained(segs...)
	if err != nil {
		return pattern.Constrained{}, false
	}
	return q, true
}

// alwaysValueFinal reports whether the token ends every supporting value,
// sampling the entry's first 64 mentions in tuple order.
func alwaysValueFinal(e invlist.Entry, tok string) bool {
	checked, final := 0, true
	e.InTupleOrder(func(_ int32, p invlist.Posting) bool {
		final = strings.HasSuffix(e.LHS(p), tok)
		checked++
		return final && checked < 64
	})
	return final && checked > 0
}

// alwaysAfterComma samples supporting values in tuple order and reports
// whether the token before the entry's token always ends with a comma,
// i.e. whether the token always follows ", ".
func alwaysAfterComma(e invlist.Entry) bool {
	checked, after := 0, true
	e.InTupleOrder(func(_ int32, p invlist.Posting) bool {
		after = strings.HasSuffix(e.Token(p, int(p.Pos)-1), ",")
		checked++
		return after && checked < 32
	})
	return after && checked > 0
}

// prefixPatternTuple builds <prefix>tail where tail generalizes the
// suffixes of the supporting values: distinct values with the prefix have
// distinct suffixes, so a repeated suffix is a value's repeated posting.
func prefixPatternTuple(e invlist.Entry, prefix string) (pattern.Constrained, bool) {
	if prefix == "" {
		return pattern.Constrained{}, false
	}
	var suffixes []string
	for _, p := range e.Postings {
		if v := e.LHS(p); strings.HasPrefix(v, prefix) {
			suffixes = append(suffixes, v[len(prefix):])
		}
	}
	suffixes = dedupStrings(suffixes)
	var tail pattern.Pattern
	switch {
	case len(suffixes) == 0:
		return pattern.Constrained{}, false
	case len(suffixes) == 1 && suffixes[0] == "":
		// The prefix is the whole value.
		return pattern.WholeValue(pattern.Literal(prefix)), true
	default:
		tail = pattern.LCGAll(suffixes)
		// Degrade all-literal tails (a single distinct suffix) to their
		// class-run shape so the rule generalizes beyond the sample.
		if len(suffixes) == 1 {
			tail = pattern.Generalize(suffixes[0], pattern.LevelClassRun)
		}
	}
	return pattern.PrefixKey(pattern.Literal(prefix), tail.Normalize()), true
}

// dedupeExtensional keeps one accepted entry per (supporting value set,
// majority RHS). Interior n-grams implied by a prefix ("060" at position 1
// inside every "6060…" zip) duplicate the prefix rule's extension and are
// dropped in its favour. Extensions are found by hash and confirmed by
// comparing the sorted value lists.
func dedupeExtensional(rules []rule) []rule {
	rankOf := func(k invlist.Key) int {
		switch k.Kind {
		case invlist.Token:
			return 3
		case invlist.Prefix:
			// Among extensionally equal rules, the longer prefix anchors
			// more of the key without changing the matched set ("850"
			// beats "85" when every 85x is 850).
			return 2_000 + len(k.Text)
		default:
			return 1
		}
	}
	slot := make(map[uint64]int, len(rules)) // extension hash → index into out
	out := make([]rule, 0, len(rules))       // best rule per extension, in first-seen order
	for _, r := range rules {
		h := uint64(14695981039346656037)
		for i := 0; i < len(r.e.TopRHS); i++ {
			h = (h ^ uint64(r.e.TopRHS[i])) * 1099511628211
		}
		for _, id := range r.values {
			h = (h ^ uint64(uint32(id))) * 1099511628211
		}
		for ; ; h++ { // a colliding, different extension probes the next hash
			i, ok := slot[h]
			if !ok {
				slot[h] = len(out)
				out = append(out, r)
				break
			}
			b := &out[i]
			if b.e.TopRHS != r.e.TopRHS || !slices.Equal(b.values, r.values) {
				continue
			}
			if rr, br := rankOf(r.e.Key), rankOf(b.e.Key); rr > br || (rr == br && invlist.Compare(r.e.Key, b.e.Key) < 0) {
				*b = r
			}
			break
		}
	}
	return out
}

// dropSubsumedEntries removes accepted entries whose supporting values
// are a strict subset of another accepted entry's with the same majority
// RHS. Entries are processed by descending support, a superset before its
// subsets, so survivors are the most general rules.
func dropSubsumedEntries(rules []rule) []rule {
	slices.SortStableFunc(rules, func(a, b rule) int {
		if a.e.Support != b.e.Support {
			return b.e.Support - a.e.Support
		}
		return invlist.Compare(a.e.Key, b.e.Key)
	})
	keptByRHS := make(map[string][][]int32)
	out := rules[:0]
	for _, r := range rules {
		if slices.ContainsFunc(keptByRHS[r.e.TopRHS], func(big []int32) bool { return subset(r.values, big) }) {
			continue
		}
		keptByRHS[r.e.TopRHS] = append(keptByRHS[r.e.TopRHS], r.values)
		out = append(out, r)
	}
	return out
}

// subset reports whether every id of a occurs in b; both are ascending.
// Each id is binary-searched in what is left of b, so a small set is
// tested against a large one in O(|a| log |b|).
func subset(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	if len(a) > 0 && (a[0] < b[0] || a[len(a)-1] > b[len(b)-1]) {
		return false
	}
	for _, id := range a {
		i, found := slices.BinarySearch(b, id)
		if !found {
			return false
		}
		b = b[i+1:]
	}
	return true
}

// mineVariableRows looks for positional key families that are uniformly
// functional and emits wildcard rows:
//
//   - token families: all accepted first-token keys generalize to
//     <\LU\LL*\ >\A* → ⊥ (λ4) when they share that shape;
//   - prefix families: all length-L prefixes whose entries are functional
//     generalize to <\D{L}>tail → ⊥ (λ5).
func mineVariableRows(entries []invlist.Entry, useTokens bool, cfg Config) []tableau.Row {
	minConf := 1 - cfg.MaxViolationRatio
	if useTokens {
		return variableTokenRow(entries, cfg, minConf)
	}
	return variablePrefixRows(entries, cfg, minConf)
}

func variableTokenRow(entries []invlist.Entry, cfg Config, minConf float64) []tableau.Row {
	var keys []string
	good, total, support := 0, 0, 0
	for _, e := range entries {
		if e.Key.Kind != invlist.Token || e.DominantLHSPos != 0 || e.Support < cfg.MinSupport {
			continue
		}
		total++
		if e.Confidence() >= minConf {
			good++
			support += e.Support
			keys = append(keys, e.Key.Text)
		}
	}
	if total == 0 || float64(good)/float64(total) < variableKeyFraction || len(keys) < 2 {
		return nil
	}
	gen := pattern.LCGAll(keys)
	gen = openRunsOf(gen)
	q, err := pattern.NewConstrained(
		pattern.Segment{Pat: gen.Concat(pattern.Literal(" ")), Constrained: true},
		pattern.Segment{Pat: pattern.AnyString()},
	)
	if err != nil {
		return nil
	}
	return []tableau.Row{{LHS: q, RHS: tableau.Wildcard, Support: support}}
}

func variablePrefixRows(entries []invlist.Entry, cfg Config, minConf float64) []tableau.Row {
	// Group prefix entries by length.
	type fam struct {
		good, total, support int
		prefixes             []string
		tails                []string
	}
	fams := map[int]*fam{}
	for _, e := range entries {
		text := e.Key.Text
		if e.Key.Kind != invlist.Prefix || e.Support < cfg.MinSupport {
			continue
		}
		L := utf8.RuneCountInString(text)
		f := fams[L]
		if f == nil {
			f = &fam{}
			fams[L] = f
		}
		f.total++
		if e.Confidence() >= minConf {
			f.good++
			f.support += e.Support
			f.prefixes = append(f.prefixes, text)
			// The first such value in value order is also the first in tuple
			// order: values are numbered by first tuple.
			for _, p := range e.Postings {
				if v := e.LHS(p); strings.HasPrefix(v, text) {
					f.tails = append(f.tails, v[len(text):])
					break
				}
			}
		}
	}
	var lens []int
	for L := range fams {
		lens = append(lens, L)
	}
	sort.Ints(lens)
	var out []tableau.Row
	for _, L := range lens {
		f := fams[L]
		if f.total < 2 || float64(f.good)/float64(f.total) < variableKeyFraction || len(f.prefixes) < 2 {
			continue
		}
		keyPat := pattern.LCGAll(f.prefixes).Normalize()
		if keyPat.HasUnbounded() {
			continue // variable-length keys do not form a positional family
		}
		tail := pattern.LCGAll(dedupStrings(f.tails)).Normalize()
		q := pattern.PrefixKey(keyPat, tail)
		out = append(out, tableau.Row{LHS: q, RHS: tableau.Wildcard, Support: f.support})
		break // the shortest functional family is the most general rule
	}
	return out
}

func dedupStrings(ss []string) []string {
	sort.Strings(ss)
	return slices.Compact(ss)
}

// openRunsOf widens literal-heavy LCG results (e.g. `\LU\LL{3}`) to the
// open form (`\LU\LL*`) used by the paper's variable rules. A first-name
// key family has a fixed capital plus a variable-length lower-case run.
func openRunsOf(p pattern.Pattern) pattern.Pattern {
	toks := p.Tokens()
	var out []pattern.Token
	for _, t := range toks {
		if t.IsClass && (t.Quant == pattern.Exactly || t.Quant == pattern.Plus) {
			out = append(out, pattern.ClassTok(t.Class).WithQuant(pattern.Star))
			continue
		}
		if !t.IsClass && t.Quant == pattern.One {
			// Literal positions inside a mined key family collapse to
			// their class: the family members differ there.
			out = append(out, t)
			continue
		}
		out = append(out, t)
	}
	return normalizeFamily(pattern.New(out...))
}

// normalizeFamily converts a mixed literal/class key pattern into the
// canonical \LU\LL* name shape when it is letter-like; otherwise returns
// it unchanged.
func normalizeFamily(p pattern.Pattern) pattern.Pattern {
	toks := p.Tokens()
	if len(toks) == 0 {
		return p
	}
	letterish := true
	for _, t := range toks {
		c := t.Class
		if !t.IsClass {
			c = classOfRune(t.Lit)
		}
		if c != upperClass() && c != lowerClass() {
			letterish = false
			break
		}
	}
	if !letterish {
		return p
	}
	return pattern.New(
		pattern.ClassTok(upperClass()),
		pattern.ClassTok(lowerClass()).WithQuant(pattern.Star),
	)
}
