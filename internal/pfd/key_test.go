package pfd

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// TestViolationKeyInjective drives the structural key with adversarial
// identities that a separator-joined or naively concatenated encoding
// would collide: component content shifting across field boundaries,
// digit-leading column names bleeding into cell row numbers, and column
// names embedding the encoding's own control bytes.
func TestViolationKeyInjective(t *testing.T) {
	cases := []struct {
		name string
		a, b Violation
	}{
		{
			name: "field boundary shift",
			a:    Violation{PFDID: "a", Row: "b\x00c"},
			b:    Violation{PFDID: "a\x00b", Row: "c"},
		},
		{
			name: "separator byte in rule rendering",
			a:    Violation{PFDID: "p", Row: "x\x1fy"},
			b:    Violation{PFDID: "p\x1fx", Row: "y"},
		},
		{
			name: "digit-leading column vs longer row number",
			a:    Violation{PFDID: "p", Row: "r", Cells: []table.CellRef{{Row: 2, Column: "2x"}}},
			b:    Violation{PFDID: "p", Row: "r", Cells: []table.CellRef{{Row: 22, Column: "x"}}},
		},
		{
			name: "one column forging a cell boundary",
			a:    Violation{PFDID: "p", Row: "r", Cells: []table.CellRef{{Row: 1, Column: "a"}, {Row: 2, Column: "b"}}},
			b:    Violation{PFDID: "p", Row: "r", Cells: []table.CellRef{{Row: 1, Column: "a\x00\x002:b"}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka, kb := tc.a.Key(), tc.b.Key()
			if ka == kb {
				t.Fatalf("distinct violations share key %q", ka)
			}
			if tc.a.Key() != ka || tc.b.Key() != kb {
				t.Fatalf("key not deterministic")
			}
		})
	}
}

// TestCompareKeysMatchesRenderedOrder pins CompareKeys to the order it
// replaces: the bytewise order of the rendered keys, over components
// drawn from an alphabet of the encoding's own control bytes (NUL, the
// escape byte, ':', digits) and over row numbers whose decimal and
// numeric orders disagree.
func TestCompareKeysMatchesRenderedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []byte{0, 1, ':', '0', '9', 'a'}
	word := func() string {
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	rows := []int{0, 1, 2, 9, 10, 19, 20, 99, 100, 101}
	draw := func() Violation {
		v := Violation{PFDID: word(), Row: word()}
		for n := rng.Intn(4); n > 0; n-- {
			v.Cells = append(v.Cells, table.CellRef{Row: rows[rng.Intn(len(rows))], Column: word()})
		}
		return v
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 20000; i++ {
		a, b := draw(), draw()
		if got, want := sign(CompareKeys(&a, &b)), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("CompareKeys(%+v, %+v) = %d, rendered keys compare %d", a, b, got, want)
		}
	}
}
