package discovery

import (
	"context"
	"math"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/invlist"
)

func entryWith(support, topCount int) invlist.Entry {
	return invlist.Entry{Support: support, TopCount: topCount, TopRHS: "X"}
}

func TestWilsonLowerBounds(t *testing.T) {
	// Perfect agreement at low vs high support.
	low := wilsonLower(4, 4, 1.96)
	high := wilsonLower(400, 400, 1.96)
	if low >= high {
		t.Errorf("Wilson bound should grow with support: %f vs %f", low, high)
	}
	if low > 0.9 {
		t.Errorf("4/4 lower bound too confident: %f", low)
	}
	if high < 0.98 {
		t.Errorf("400/400 lower bound too weak: %f", high)
	}
	if wilsonLower(0, 0, 1.96) != 0 {
		t.Error("empty evidence should bound to 0")
	}
	// Monotone in k for fixed n.
	if wilsonLower(3, 10, 1.96) >= wilsonLower(8, 10, 1.96) {
		t.Error("bound not monotone in successes")
	}
}

func TestWilsonDecision(t *testing.T) {
	f := WilsonDecision(4, 0.9, 1.96)
	if f(entryWith(3, 3)) {
		t.Error("support below floor must be rejected")
	}
	if f(entryWith(4, 4)) {
		t.Error("4/4 has Wilson lower bound ≈0.51 < 0.9")
	}
	if !f(entryWith(400, 400)) {
		t.Error("400/400 should pass")
	}
	if f(entryWith(400, 350)) {
		t.Error("87.5% raw with tight bound should fail at 0.9")
	}
	// z defaulting.
	g := WilsonDecision(1, 0.5, 0)
	if !g(entryWith(100, 95)) {
		t.Error("default z should behave like 1.96")
	}
}

func TestWilsonSuppressesOverfitRules(t *testing.T) {
	// At ρ-style raw thresholding with dirty data, low-support long
	// prefixes flood the tableau (the ρ=0 row of the ρ sweep that
	// `anmat experiments` prints). Wilson
	// keeps only well-supported rules.
	ds := datagen.PhoneState(3000, 0.02, 41)
	raw := Default()
	raw.MaxViolationRatio = 0 // raw confidence 1.0 required
	resRaw, err := Discover(context.Background(), ds.Table, nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	wil := Default()
	wil.Decision = WilsonDecision(wil.MinSupport, 0.95, 1.96)
	resWil, err := Discover(context.Background(), ds.Table, nil, wil)
	if err != nil {
		t.Fatal(err)
	}
	nRaw, nWil := 0, 0
	for _, p := range resRaw.PFDs {
		if p.LHS == "phone" {
			nRaw = p.Tableau.Len()
		}
	}
	for _, p := range resWil.PFDs {
		if p.LHS == "phone" {
			nWil = p.Tableau.Len()
		}
	}
	if nWil == 0 {
		t.Fatal("Wilson discovery found nothing")
	}
	if nWil >= nRaw {
		t.Errorf("Wilson should prune overfit low-support rules: raw=%d wilson=%d", nRaw, nWil)
	}
}

func TestLiftDecision(t *testing.T) {
	base := map[string]float64{"X": 0.9, "Y": 0.1}
	f := LiftDecision(4, 0.9, 2, base)
	// Confidence 0.95 on a 90% base rate: lift ≈ 1.06 → reject.
	if f(invlist.Entry{Support: 100, TopCount: 95, TopRHS: "X"}) {
		t.Error("restating the dominant RHS should be rejected")
	}
	// Confidence 0.95 on a 10% base rate: lift 9.5 → accept.
	if !f(invlist.Entry{Support: 100, TopCount: 95, TopRHS: "Y"}) {
		t.Error("strong minority rule should be accepted")
	}
	if f(invlist.Entry{Support: 2, TopCount: 2, TopRHS: "Y"}) {
		t.Error("support floor ignored")
	}
	if f(invlist.Entry{Support: 100, TopCount: 95, TopRHS: "unknown"}) {
		t.Error("unknown base rate should reject")
	}
	// High lift with low confidence is still rejected.
	if f(invlist.Entry{Support: 100, TopCount: 40, TopRHS: "Y"}) {
		t.Error("confidence floor ignored")
	}
}

func TestRHSBaseRates(t *testing.T) {
	rates := RHSBaseRates([]string{"a", "a", "b", ""})
	if math.Abs(rates["a"]-2.0/3.0) > 1e-9 || math.Abs(rates["b"]-1.0/3.0) > 1e-9 {
		t.Errorf("rates = %v", rates)
	}
	if len(RHSBaseRates(nil)) != 0 {
		t.Error("empty input should give empty rates")
	}
}
