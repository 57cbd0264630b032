package datagen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPhoneStateSkewedPinnedFixture regenerates the committed skewed
// fixture (testdata/phone_state_skewed.csv at the repo root, produced by
// `datagen -family phone -n 48 -skew 1.3 -seed 7 -err 0.05`) and
// asserts byte-identity — the generator is deterministic under its seed,
// so shard tests consuming the fixture exercise exactly the pinned
// hot-block shape.
func TestPhoneStateSkewedPinnedFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "phone_state_skewed.csv"))
	if err != nil {
		t.Fatal(err)
	}
	ds := PhoneStateSkewed(48, 0.05, 7, 1.3)
	var buf bytes.Buffer
	if err := ds.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("regenerated fixture diverges from the committed one:\n got %d bytes\nwant %d bytes", buf.Len(), len(want))
	}
}

// TestPhoneStateSkewConcentration asserts the Zipf option actually skews
// the block-key distribution: the dominant area code must cover far more
// of the table than the uniform share, and skew <= 1 must reproduce the
// uniform generator exactly.
func TestPhoneStateSkewConcentration(t *testing.T) {
	const n = 4000
	count := func(ds *Dataset) map[string]int {
		m := make(map[string]int)
		for r := 0; r < ds.Table.NumRows(); r++ {
			m[ds.Table.Cell(r, 0)[:3]]++
		}
		return m
	}
	max := func(m map[string]int) int {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		return best
	}
	uniform := max(count(PhoneState(n, 0, 11)))
	skewed := max(count(PhoneStateSkewed(n, 0, 11, 1.5)))
	if skewed < 2*uniform {
		t.Fatalf("skewed max block %d not clearly hotter than uniform max %d", skewed, uniform)
	}
	// skew <= 1 is the uniform generator, byte for byte.
	a, b := PhoneState(500, 0.01, 3), PhoneStateSkewed(500, 0.01, 3, 0.5)
	for r := 0; r < 500; r++ {
		if a.Table.Cell(r, 0) != b.Table.Cell(r, 0) || a.Table.Cell(r, 1) != b.Table.Cell(r, 1) {
			t.Fatalf("row %d diverges between PhoneState and skew<=1 PhoneStateSkewed", r)
		}
	}
}
