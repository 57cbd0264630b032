// Package eval provides the detection-quality scoring used by the
// experiment harness, the integration tests and the examples: comparing a
// set of flagged rows against the injected-error ground truth.
package eval

import "fmt"

// Metrics is the standard detection scorecard.
type Metrics struct {
	Injected  int     `json:"injected"`
	Flagged   int     `json:"flagged"`
	TruePos   int     `json:"true_pos"`
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
	F1        float64 `json:"f1"`
}

// Score compares flagged rows against ground-truth error rows.
func Score(flagged, injected map[int]bool) Metrics {
	m := Metrics{Injected: len(injected), Flagged: len(flagged)}
	for r := range flagged {
		if injected[r] {
			m.TruePos++
		}
	}
	if m.Injected > 0 {
		m.Recall = float64(m.TruePos) / float64(m.Injected)
	}
	if m.Flagged > 0 {
		m.Precision = float64(m.TruePos) / float64(m.Flagged)
	}
	if m.Recall+m.Precision > 0 {
		m.F1 = 2 * m.Recall * m.Precision / (m.Recall + m.Precision)
	}
	return m
}

// String renders the scorecard compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("injected=%d flagged=%d recall=%.2f precision=%.2f f1=%.2f",
		m.Injected, m.Flagged, m.Recall, m.Precision, m.F1)
}
