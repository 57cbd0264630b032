package report

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
)

func runSession(t *testing.T) *core.Session {
	t.Helper()
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	d := datagen.ZipCity(1000, 0.01, 77)
	se := sys.NewSession("rpt", d.Table, core.DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return se
}

func TestWriteSections(t *testing.T) {
	se := runSession(t)
	var buf bytes.Buffer
	if err := Write(&buf, se); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# ANMAT report",
		"## 1. Profile",
		"## 2. Discovered PFDs",
		"## 3. Violations",
		"## 4. Suggested repairs",
		"coverage γ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Tableaux and violations actually present.
	if !strings.Contains(out, "→") && !strings.Contains(out, "| `") {
		t.Error("no tableau rows rendered")
	}
	// Error triage appears when repairs exist.
	if !strings.Contains(out, "Error triage:") {
		t.Error("triage summary missing")
	}
	if !strings.Contains(out, "| kind |") {
		t.Error("kind column missing in repairs table")
	}
}

// Listings are capped: a session with more violations and repairs than
// the report shows ends each listing in a "… N more" row.
func TestWriteTruncation(t *testing.T) {
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	d := datagen.ZipCity(5000, 0.02, 77)
	se := sys.NewSession("rpt", d.Table, core.DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Violations) <= maxViolations || len(se.Repairs) <= maxRepairs {
		t.Fatalf("fixture too clean to truncate: %d violations, %d repairs", len(se.Violations), len(se.Repairs))
	}
	var buf bytes.Buffer
	if err := Write(&buf, se); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("| … %d more | | | |\n", len(se.Violations)-maxViolations),
		fmt.Sprintf("| … %d more | | | | | |\n", len(se.Repairs)-maxRepairs),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing truncation row %q", want)
		}
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestWritePropagatesErrors(t *testing.T) {
	se := runSession(t)
	if err := Write(&failWriter{after: 2}, se); err == nil {
		t.Error("write error should propagate")
	}
}

func TestWriteEmptySession(t *testing.T) {
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	d := datagen.ZipCity(50, 0, 78)
	se := sys.NewSession("rpt", d.Table, core.Params{MinCoverage: 1.1, AllowedViolations: 0})
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No PFDs met the thresholds") {
		t.Error("empty discovery should be stated")
	}
}
