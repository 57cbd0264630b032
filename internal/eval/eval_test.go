package eval

import (
	"math"
	"strings"
	"testing"
)

// rowSet builds a row set from a slice of row ids.
func rowSet(rows []int) map[int]bool {
	m := make(map[int]bool, len(rows))
	for _, r := range rows {
		m[r] = true
	}
	return m
}

func TestScorePerfect(t *testing.T) {
	inj := rowSet([]int{1, 2, 3})
	m := Score(rowSet([]int{1, 2, 3}), inj)
	if m.Recall != 1 || m.Precision != 1 || m.F1 != 1 {
		t.Errorf("perfect score = %+v", m)
	}
}

func TestScorePartial(t *testing.T) {
	inj := rowSet([]int{1, 2, 3, 4})
	m := Score(rowSet([]int{1, 2, 9}), inj)
	if m.TruePos != 2 {
		t.Errorf("TruePos = %d", m.TruePos)
	}
	if m.Recall != 0.5 {
		t.Errorf("Recall = %f", m.Recall)
	}
	if math.Abs(m.Precision-2.0/3.0) > 1e-9 {
		t.Errorf("Precision = %f", m.Precision)
	}
	wantF1 := 2 * 0.5 * (2.0 / 3.0) / (0.5 + 2.0/3.0)
	if math.Abs(m.F1-wantF1) > 1e-9 {
		t.Errorf("F1 = %f, want %f", m.F1, wantF1)
	}
}

func TestScoreEdges(t *testing.T) {
	m := Score(nil, nil)
	if m.Recall != 0 || m.Precision != 0 || m.F1 != 0 {
		t.Errorf("empty score = %+v", m)
	}
	// Nothing flagged but errors exist: precision 0 by convention here?
	// No flags means precision is vacuously 0 and recall 0.
	m = Score(nil, rowSet([]int{1}))
	if m.Recall != 0 || m.Flagged != 0 {
		t.Errorf("no-flag score = %+v", m)
	}
	// Flags but no errors: precision 0.
	m = Score(rowSet([]int{1}), nil)
	if m.Precision != 0 || m.Injected != 0 {
		t.Errorf("no-error score = %+v", m)
	}
}

func TestStringRendering(t *testing.T) {
	m := Score(rowSet([]int{1}), rowSet([]int{1}))
	s := m.String()
	if !strings.Contains(s, "recall=1.00") || !strings.Contains(s, "precision=1.00") {
		t.Errorf("String = %q", s)
	}
}
