package persist

import (
	"io"
	"log/slog"
	"os"
	"testing"
)

// TestMain silences the log line every failed background checkpoint
// write leaves: the fault suites provoke hundreds.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}
