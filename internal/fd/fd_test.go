package fd

import (
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

func sample() *table.Table {
	t := table.MustNew("t", []string{"zip", "city", "state"})
	t.MustAppend("90001", "Los Angeles", "CA")
	t.MustAppend("90002", "Los Angeles", "CA")
	t.MustAppend("60601", "Chicago", "IL")
	t.MustAppend("60601", "Chicago", "IL")
	t.MustAppend("60602", "Chicago", "IL")
	return t
}

func hasFD(fds []FD, lhs, rhs string) bool {
	for _, f := range fds {
		if f.LHS == lhs && f.RHS == rhs {
			return true
		}
	}
	return false
}

func TestDiscoverExact(t *testing.T) {
	fds := Discover(sample(), 0)
	if !hasFD(fds, "zip", "city") || !hasFD(fds, "zip", "state") {
		t.Errorf("zip FDs missing: %v", fds)
	}
	if !hasFD(fds, "city", "state") {
		t.Errorf("city -> state missing: %v", fds)
	}
	if hasFD(fds, "state", "zip") {
		t.Errorf("state -> zip should not hold: %v", fds)
	}
}

func TestDiscoverApproximate(t *testing.T) {
	tb := sample()
	tb.MustAppend("60601", "Chicago", "IN") // one dirty state
	exact := Discover(tb, 0)
	if hasFD(exact, "zip", "state") {
		t.Error("exact discovery should reject dirty FD")
	}
	// One disagreeing row out of the 3-row stripped group: ratio 1/3.
	approx := Discover(tb, 0.34)
	if !hasFD(approx, "zip", "state") {
		t.Errorf("approximate discovery should keep dirty FD: %v", approx)
	}
}

func TestDiscoverAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tb := table.MustNew("r", []string{"a", "b"})
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			tb.MustAppend(
				string(rune('a'+rng.Intn(3))),
				string(rune('x'+rng.Intn(3))),
			)
		}
		fds := Discover(tb, 0)
		// Brute force: a->b holds iff no two rows agree on a, differ on b.
		holds := func(lhs, rhs int) bool {
			for i := 0; i < tb.NumRows(); i++ {
				for j := i + 1; j < tb.NumRows(); j++ {
					if tb.Cell(i, lhs) == tb.Cell(j, lhs) && tb.Cell(i, rhs) != tb.Cell(j, rhs) {
						return false
					}
				}
			}
			return true
		}
		if got, want := hasFD(fds, "a", "b"), holds(0, 1); got != want {
			t.Fatalf("trial %d: a->b discover=%v brute=%v", trial, got, want)
		}
		if got, want := hasFD(fds, "b", "a"), holds(1, 0); got != want {
			t.Fatalf("trial %d: b->a discover=%v brute=%v", trial, got, want)
		}
	}
}

func TestCheckViolations(t *testing.T) {
	tb := sample()
	tb.MustAppend("60601", "Springfield", "IL") // violates zip -> city
	vs, err := Check(tb, FD{LHS: "zip", RHS: "city"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	v := vs[0]
	if v.RowJ != 5 || v.RHSJ != "Springfield" || v.RHSI != "Chicago" {
		t.Errorf("violation = %+v", v)
	}
	rows := ViolatingRows(vs)
	if !rows[5] || len(rows) != 1 {
		t.Errorf("ViolatingRows = %v", rows)
	}
}

func TestCheckCleanTable(t *testing.T) {
	vs, err := Check(sample(), FD{LHS: "zip", RHS: "city"})
	if err != nil || len(vs) != 0 {
		t.Errorf("clean check = %v, %v", vs, err)
	}
}

func TestCheckMissingColumn(t *testing.T) {
	if _, err := Check(sample(), FD{LHS: "nope", RHS: "city"}); err == nil {
		t.Error("missing LHS should error")
	}
	if _, err := Check(sample(), FD{LHS: "zip", RHS: "nope"}); err == nil {
		t.Error("missing RHS should error")
	}
}

// The headline claim of the paper: FDs over whole values cannot catch the
// error that a PFD catches, because the dirty tuple's LHS value is unique.
func TestFDBlindSpot(t *testing.T) {
	tb := table.MustNew("Zip", []string{"zip", "city"})
	tb.MustAppend("90001", "Los Angeles")
	tb.MustAppend("90002", "Los Angeles")
	tb.MustAppend("90003", "Los Angeles")
	tb.MustAppend("90004", "New York") // dirty, but zip 90004 is unique
	vs, err := Check(tb, FD{LHS: "zip", RHS: "city"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("whole-value FD should be blind to s4, found %+v", vs)
	}
	// The FD even *holds* on the dirty data.
	if !hasFD(Discover(tb, 0), "zip", "city") {
		t.Error("zip -> city should hold over whole values")
	}
}
