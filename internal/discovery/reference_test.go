package discovery

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/invlist"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tokenize"
)

// The reference the coded-column path is checked against: the inverted
// list as a map of string keys to string-carrying postings, analyzed with
// one map per question (seen tuples, seen (tuple, RHS) pairs, position
// counts, RHS counts) — the form the flat list replaced. It makes none of
// the fast path's assumptions: it does not care in which order postings
// arrive, whether a tuple repeats under a key, or how large a position is.

type refPosting struct {
	tuple, pos int
	rhs        string
}

type refEntry struct {
	key                string
	tuples             []int
	support, topCount  int
	topRHS             string
	dominantPos, posts int
	purity             float64
}

func refEntries(lhs, rhs []string, useTokens bool, cfg Config) []refEntry {
	m := map[string][]refPosting{}
	for id, v := range lhs {
		if v == "" || rhs[id] == "" {
			continue
		}
		if useTokens {
			for _, tok := range tokenize.Tokenize(v) {
				m[tok.Text] = append(m[tok.Text], refPosting{id, tok.Pos, rhs[id]})
			}
			continue
		}
		for _, tok := range tokenize.AppendPrefixes(nil, v, cfg.MaxPrefix) {
			k := "p\x00" + tok.Text
			m[k] = append(m[k], refPosting{id, 0, rhs[id]})
		}
		for _, tok := range tokenize.AppendNGrams(nil, v, cfg.NGramN) {
			if tok.Pos == 0 {
				continue
			}
			k := "g\x00" + tok.Text + "\x00" + strconv.Itoa(tok.Pos)
			m[k] = append(m[k], refPosting{id, tok.Pos, rhs[id]})
		}
	}
	var out []refEntry
	for key, ps := range m {
		e := refEntry{key: key, posts: len(ps)}
		seenTuple := map[int]bool{}
		seenPair := map[[2]string]bool{}
		rhsCounts := map[string]int{}
		posCounts := map[int]int{}
		for _, p := range ps {
			if !seenTuple[p.tuple] {
				seenTuple[p.tuple] = true
				e.support++
				e.tuples = append(e.tuples, p.tuple)
			}
			if pair := [2]string{strconv.Itoa(p.tuple), p.rhs}; !seenPair[pair] {
				seenPair[pair] = true
				rhsCounts[p.rhs]++
			}
			posCounts[p.pos]++
		}
		sort.Ints(e.tuples)
		for u, c := range rhsCounts {
			if c > e.topCount || (c == e.topCount && u < e.topRHS) {
				e.topRHS, e.topCount = u, c
			}
		}
		bestN := -1
		for pos, n := range posCounts {
			if n > bestN || (n == bestN && pos < e.dominantPos) {
				e.dominantPos, bestN = pos, n
			}
		}
		e.purity = float64(bestN) / float64(len(ps))
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].support != out[j].support {
			return out[i].support > out[j].support
		}
		return out[i].key < out[j].key
	})
	return out
}

// describe renders an entry the way a decision function can see it.
func describe(key string, tuples []int32, support int, topRHS string, topCount, pos int, purity float64, posts int) string {
	return fmt.Sprintf("%q tuples=%v support=%d top=%q/%d pos=%d purity=%v postings=%d",
		key, tuples, support, topRHS, topCount, pos, purity, posts)
}

func describeRef(e refEntry) string {
	tuples := make([]int32, len(e.tuples))
	for i, id := range e.tuples {
		tuples[i] = int32(id)
	}
	return describe(e.key, tuples, e.support, e.topRHS, e.topCount, e.dominantPos, e.purity, e.posts)
}

func describeEntry(e invlist.Entry) string {
	return describe(e.Key.String(), tuplesOf(e), e.Support, e.TopRHS, e.TopCount, e.DominantLHSPos, e.PosPurity, e.Mentions)
}

// tuplesOf lists the entry's distinct tuple ids in the order the
// tuple-order walk reaches them: ascending, if the walk is right.
func tuplesOf(e invlist.Entry) []int32 {
	var out []int32
	e.InTupleOrder(func(t int32, _ invlist.Posting) bool {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
		return true
	})
	return out
}

// checkAgainstReference builds the flat list for one candidate and checks
// that its entries — order, support, majority RHS, dominant position,
// purity, tuple sets — are the reference's: at floor 0 all of them, and at
// floor MinSupport, where weak prefixes are never cut, those with that
// much support. Both lists count every key.
func checkAgainstReference(t *testing.T, lhs, rhs []string, useTokens bool, cfg Config) []invlist.Entry {
	t.Helper()
	tbl := table.MustNew("t", []string{"lhs", "rhs"})
	for i := range lhs {
		tbl.MustAppend(lhs[i], rhs[i])
	}
	want := refEntries(lhs, rhs, useTokens, cfg)
	var all []invlist.Entry
	for _, floor := range []int{0, cfg.MinSupport} {
		cut := cutOf(cfg, useTokens)
		cut.MinSupport = floor
		idx, err := invlist.NewIndex(context.Background(), columnOf(tbl.InternedColumn(0), false).Column, cut)
		if err != nil {
			t.Fatal(err)
		}
		list := invlist.New(idx, columnOf(tbl.InternedColumn(1), false).Column)
		if list.Keys() != len(want) {
			t.Fatalf("floor %d: %d keys, reference has %d", floor, list.Keys(), len(want))
		}
		got := list.Entries()
		if all == nil {
			all = got
		}
		i := 0
		for _, w := range want {
			if w.support < floor {
				continue
			}
			if i == len(got) {
				t.Fatalf("floor %d: %d entries, reference has more", floor, len(got))
			}
			if g, w := describeEntry(got[i]), describeRef(w); g != w {
				t.Fatalf("floor %d: entry %d:\n got  %s\n want %s", floor, i, g, w)
			}
			i++
		}
		if i != len(got) {
			t.Fatalf("floor %d: %d entries, reference has %d", floor, len(got), i)
		}
	}
	return all
}

func find(es []invlist.Entry, kind invlist.Kind, text string, pos int) (invlist.Entry, bool) {
	for _, e := range es {
		if e.Key.Kind == kind && e.Key.Text == text && int(e.Key.Pos) == pos {
			return e, true
		}
	}
	return invlist.Entry{}, false
}

// Token mode: a value that repeats a token supports it once, however many
// postings it contributes, and repeats of a whole value reuse its
// decomposition.
func TestRepeatedTokenCountsOncePerTuple(t *testing.T) {
	lhs := []string{"aa aa", "aa bb", "aa aa", "bb aa aa aa", "aa aa"}
	rhs := []string{"x", "x", "y", "x", "x"}
	es := checkAgainstReference(t, lhs, rhs, true, Default())
	aa, ok := find(es, invlist.Token, "aa", 0)
	if !ok || aa.Support != 5 || aa.Mentions != 10 || aa.TopRHS != "x" || aa.TopCount != 4 {
		t.Errorf("aa: %s", describeEntry(aa))
	}
	// Positions 0 and 1 both hold "aa" four times: the lower one wins.
	if aa.DominantLHSPos != 0 || aa.PosPurity != 0.4 {
		t.Errorf("aa position tie: pos %d purity %v, want 0 and 0.4", aa.DominantLHSPos, aa.PosPurity)
	}
}

// Prefixes and n-grams are cut at rune boundaries and positioned by rune,
// not byte; invalid UTF-8 takes the sanitizing fallback and still agrees
// with the rune-slice definition.
func TestMultiByteRunesAndInvalidUTF8(t *testing.T) {
	lhs := []string{"héllo1", "héllo2", "hél", "日本語テキスト", "日本語テキスト", "\xffab\xfecd", "\xffab\xfecd", "a\xc3"}
	rhs := []string{"u", "u", "u", "v", "v", "w", "w", "w"}
	es := checkAgainstReference(t, lhs, rhs, false, Default())
	if e, ok := find(es, invlist.Gram, "llo", 2); !ok || e.Support != 2 {
		t.Errorf(`gram "llo" must sit at rune position 2 (byte 3) with support 2: %v %s`, ok, describeEntry(e))
	}
	if e, ok := find(es, invlist.Prefix, "hé", 0); !ok || e.Support != 3 {
		t.Errorf(`prefix "hé" must have support 3: %v %s`, ok, describeEntry(e))
	}
	if e, ok := find(es, invlist.Gram, "テキス", 3); !ok || e.Support != 2 {
		t.Errorf(`gram "テキス" must sit at rune position 3: %v %s`, ok, describeEntry(e))
	}
	// Token mode over the same values.
	checkAgainstReference(t, lhs, rhs, true, Default())
}

// Values shorter than (or exactly) NGramN yield prefixes only: their one
// whole-value n-gram sits at position 0, which the prefix already covers.
func TestValuesShorterThanNGramN(t *testing.T) {
	lhs := []string{"a", "ab", "abc", "abcd", "ab", "é", "éa"}
	rhs := []string{"x", "x", "x", "x", "y", "y", "y"}
	cfg := Default()
	es := checkAgainstReference(t, lhs, rhs, false, cfg)
	for _, e := range es {
		if e.Key.Kind == invlist.Gram && e.Key.Text != "bcd" {
			t.Errorf("unexpected n-gram %s", describeEntry(e))
		}
	}
	cfg.NGramN, cfg.MaxPrefix = 5, 2
	checkAgainstReference(t, lhs, rhs, false, cfg)
}

// Rows with an empty LHS or an empty RHS insert nothing; a value whose
// every row lacks an RHS contributes no key at all.
func TestEmptyCellsAreSkipped(t *testing.T) {
	lhs := []string{"", "A1 x", "A1 x", "B2 y", "", "B2 y", "C3 z"}
	rhs := []string{"x", "x", "", "", "", "", "y"}
	for _, useTokens := range []bool{true, false} {
		es := checkAgainstReference(t, lhs, rhs, useTokens, Default())
		for _, e := range es {
			if strings.HasPrefix(e.Key.Text, "B") || e.Key.Text == "y" {
				t.Errorf("tokens=%v: key %q comes only from rows without an RHS", useTokens, e.Key.Text)
			}
			for _, tuple := range tuplesOf(e) {
				if tuple != 1 && tuple != 6 {
					t.Errorf("tokens=%v: posting from skipped row %d under %q", useTokens, tuple, e.Key.Text)
				}
			}
		}
	}
}

// Ties: the lexicographically smallest RHS wins whichever arrives first,
// and the lowest position wins — also far past any small counter array.
func TestTiesAndLargePositions(t *testing.T) {
	long := strings.Repeat("w ", 300) + "k"
	lhs := []string{"k b", "k a", long, long, "q k", "q k"}
	rhs := []string{"b", "a", "a", "b", "c", "c"}
	es := checkAgainstReference(t, lhs, rhs, true, Default())
	k, ok := find(es, invlist.Token, "k", 0)
	if !ok || k.Support != 6 || k.TopRHS != "a" || k.TopCount != 2 {
		t.Errorf("k: %s", describeEntry(k))
	}
	// Positions 0, 300 and 1 hold "k" twice each.
	if k.DominantLHSPos != 0 || k.PosPurity != 2.0/6.0 {
		t.Errorf("k position tie: pos %d purity %v", k.DominantLHSPos, k.PosPurity)
	}
	// The same in n-gram mode: positions run to the value's rune length.
	cfg := Default()
	cfg.MaxPrefix = 700
	checkAgainstReference(t, lhs, rhs, false, cfg)
}

// The generated families, both modes, dirty rows included.
func TestFlatListMatchesReferenceOnDatagen(t *testing.T) {
	cases := []struct {
		name     string
		tbl      *table.Table
		lhs, rhs string
	}{
		{"phone", datagen.PhoneState(600, 0.02, 61).Table, "phone", "state"},
		{"name", datagen.NameGender(600, 0.02, 62).Table, "full_name", "gender"},
		{"zip", datagen.ZipCity(600, 0.02, 63).Table, "zip", "city"},
		{"addresses", datagen.Addresses(600, 0.02, 64).Table, "address", "state"},
	}
	for _, c := range cases {
		lhs, err := c.tbl.Column(c.lhs)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := c.tbl.Column(c.rhs)
		if err != nil {
			t.Fatal(err)
		}
		for _, useTokens := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/tokens=%v", c.name, useTokens), func(t *testing.T) {
				checkAgainstReference(t, lhs, rhs, useTokens, Default())
			})
		}
	}
}

// A custom decision function is shown every entry — the support-1 tail
// included — in list order, with the reference's numbers; what it accepts
// is what Stats.Accepted reports.
func TestCustomDecisionSeesEveryEntry(t *testing.T) {
	tbl := datagen.PhoneState(500, 0.02, 65).Table
	lhs, _ := tbl.Column("phone")
	rhs, _ := tbl.Column("state")
	decisions := map[string]DecisionFunc{
		"wilson": WilsonDecision(4, 0.6, 1.96),
		"lift":   LiftDecision(4, 0.9, 2, RHSBaseRates(rhs)),
	}
	for name, f := range decisions {
		t.Run(name, func(t *testing.T) {
			var seen []string
			accepted, singletons := 0, 0
			cfg := Default()
			cfg.Parallelism = 1
			cfg.Decision = func(e invlist.Entry) bool {
				seen = append(seen, describeEntry(e))
				if e.Support == 1 {
					singletons++
				}
				ok := f(e)
				if ok {
					accepted++
				}
				return ok
			}
			res, err := Discover(context.Background(), tbl, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Stats) != 1 {
				t.Fatalf("fixture must have the one phone → state candidate, has %d", len(res.Stats))
			}
			want := refEntries(lhs, rhs, false, cfg)
			if len(seen) != len(want) || res.Stats[0].Entries != len(want) {
				t.Fatalf("decision saw %d entries, stats say %d, reference has %d", len(seen), res.Stats[0].Entries, len(want))
			}
			for i := range want {
				if w := describeRef(want[i]); seen[i] != w {
					t.Fatalf("entry %d:\n got  %s\n want %s", i, seen[i], w)
				}
			}
			if singletons == 0 {
				t.Error("no support-1 entry reached the decision function")
			}
			if accepted == 0 || res.Stats[0].Accepted != accepted {
				t.Errorf("accepted %d, stats say %d", accepted, res.Stats[0].Accepted)
			}
		})
	}
}

func TestSubset(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{nil, nil, true},
		{nil, []int32{1}, true},
		{[]int32{1}, nil, false},
		{[]int32{1, 5, 9}, []int32{1, 2, 5, 7, 9}, true},
		{[]int32{1, 5, 9}, []int32{1, 5, 9}, true},
		{[]int32{1, 6, 9}, []int32{1, 2, 5, 7, 9}, false},
		{[]int32{0, 5}, []int32{1, 2, 5}, false},
		{[]int32{5, 10}, []int32{1, 2, 5, 9}, false},
		{[]int32{5, 5}, []int32{1, 5, 9}, false}, // not a set: the second 5 finds nothing left
		{[]int32{1, 2, 3, 4}, []int32{1, 2, 3}, false},
	}
	for _, c := range cases {
		if got := subset(c.a, c.b); got != c.want {
			t.Errorf("subset(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// dedupeExtensional keeps one rule per (tuple set, RHS) in first-seen
// order — the highest-ranked key, then the smallest — and never merges
// different extensions.
func TestDedupeExtensional(t *testing.T) {
	mk := func(kind invlist.Kind, text string, pos int32, rhs string, tuples ...int32) rule {
		return rule{e: invlist.Entry{Key: invlist.Key{Kind: kind, Pos: pos, Text: text}, TopRHS: rhs, Support: len(tuples)}, values: tuples}
	}
	in := []rule{
		mk(invlist.Gram, "060", 1, "Chicago", 1, 2, 3),
		mk(invlist.Prefix, "60", 0, "Chicago", 1, 2, 3),
		mk(invlist.Prefix, "606", 0, "Chicago", 1, 2, 3), // longer prefix, same extension: wins
		mk(invlist.Prefix, "606", 0, "Evanston", 1, 2, 3),
		mk(invlist.Gram, "060", 2, "Chicago", 1, 2),
		mk(invlist.Gram, "050", 2, "Chicago", 1, 2), // same rank: smaller key wins
		mk(invlist.Prefix, "9", 0, "Chicago", 1, 2, 4),
	}
	var got []string
	for _, r := range dedupeExtensional(in) {
		got = append(got, fmt.Sprintf("%s→%s%v", r.e.Key.String(), r.e.TopRHS, r.values))
	}
	want := []string{
		"p\x00606→Chicago[1 2 3]",
		"p\x00606→Evanston[1 2 3]",
		"g\x00050\x002→Chicago[1 2]",
		"p\x009→Chicago[1 2 4]",
	}
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Errorf("dedupeExtensional:\n got  %q\n want %q", got, want)
	}
}

// Repeated values dominate and rows without an RHS are interleaved, so a
// value's number — its first eligible tuple — is not its dictionary ID
// ("B2 y y" is coded first and numbered last), and a token repeats inside
// a repeated value.
func TestRepeatedValuesWithGaps(t *testing.T) {
	lhs := []string{"B2 y y", "A1 x", "B2 y y", "A1 x", "C3 z", "B2 y y", "A1 x", "C3 z", "", "A1 q", "B2 y y"}
	rhs := []string{"", "u", "", "u", "w", "v", "", "w", "u", "u", "w"}
	for _, useTokens := range []bool{true, false} {
		es := checkAgainstReference(t, lhs, rhs, useTokens, Default())
		if !useTokens {
			continue
		}
		y, ok := find(es, invlist.Token, "y", 0)
		if !ok || y.Support != 2 || y.Mentions != 4 || len(y.Postings) != 2 || fmt.Sprint(tuplesOf(y)) != "[5 10]" {
			t.Errorf("y: %s (%d postings)", describeEntry(y), len(y.Postings))
		}
		// "v" and "w" pair with y once each: the smaller wins; positions 1
		// and 2 hold it twice each: the lower wins.
		if y.TopRHS != "v" || y.TopCount != 1 || y.DominantLHSPos != 1 || y.PosPurity != 0.5 {
			t.Errorf("y ties: %s", describeEntry(y))
		}
		a1, _ := find(es, invlist.Token, "A1", 0)
		if a1.Support != 3 || len(a1.Postings) != 2 || fmt.Sprint(tuplesOf(a1)) != "[1 3 9]" {
			t.Errorf("A1: %s (%d postings)", describeEntry(a1), len(a1.Postings))
		}
	}
}

// Ties in the majority RHS and in the dominant position come out the same
// whichever value is numbered first: every rotation of the rows reaches
// the tied counts in a different order.
func TestTiesAreIndependentOfValueOrder(t *testing.T) {
	lhs := []string{"k b", "k b", "m k", "m k", "k a", "k a", "n k", "n k", "o o k", "o o k"}
	rhs := []string{"b", "b", "a", "a", "c", "c", "a", "b", "c", "c"}
	n := len(lhs)
	for shift := 0; shift < n; shift++ {
		l := append(append([]string{}, lhs[shift:]...), lhs[:shift]...)
		r := append(append([]string{}, rhs[shift:]...), rhs[:shift]...)
		es := checkAgainstReference(t, l, r, true, Default())
		k, _ := find(es, invlist.Token, "k", 0)
		// a, b and c pair with k three, three and four times; positions 0
		// and 1 hold it four times each.
		if k.Support != 10 || k.TopRHS != "c" || k.TopCount != 4 || k.DominantLHSPos != 0 || k.PosPurity != 0.4 {
			t.Errorf("shift %d: k: %s", shift, describeEntry(k))
		}
		o, _ := find(es, invlist.Token, "o", 0)
		if o.Support != 2 || o.Mentions != 4 || o.DominantLHSPos != 0 || o.PosPurity != 0.5 {
			t.Errorf("shift %d: o: %s", shift, describeEntry(o))
		}
		checkAgainstReference(t, l, r, false, Default())
	}
}

// FuzzEntriesAgainstReference cuts two short columns out of the fuzz input
// (one cell per line) and holds the weighted list to the per-tuple
// reference in both modes. The seeds below and the committed corpus run
// under plain `go test`.
func FuzzEntriesAgainstReference(f *testing.F) {
	f.Add("aa aa\naa bb\naa aa\nbb aa aa aa\naa aa", "x\nx\ny\nx\nx")
	f.Add("60601\n60601\n60602\n\n60601\n10001", "Chicago\n\nChicago\nChicago\nEvanston\nNew York")
	f.Add("h\xc3\xa9llo1\nh\xc3\xa9llo1\n\xffab\xfecd\n\xffab\xfecd\na\xc3", "u\nv\nw\nw\nw")
	f.Fuzz(func(t *testing.T, a, b string) {
		lhs, rhs := strings.Split(a, "\n"), strings.Split(b, "\n")
		if len(lhs) > 48 || len(a) > 600 {
			t.Skip("two short columns")
		}
		for i := 0; len(rhs) < len(lhs); i++ { // cycle the RHS column to the LHS's length
			rhs = append(rhs, rhs[i])
		}
		cfg := Default()
		checkAgainstReference(t, lhs, rhs[:len(lhs)], true, cfg)
		checkAgainstReference(t, lhs, rhs[:len(lhs)], false, cfg)
		cfg.NGramN, cfg.MaxPrefix = 2, 3
		checkAgainstReference(t, lhs, rhs[:len(lhs)], false, cfg)
	})
}
