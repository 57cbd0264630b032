package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/server"
)

// TestCLIBackupRestore moves a session between two live servers through
// the backup/restore subcommands.
func TestCLIBackupRestore(t *testing.T) {
	newServer := func() (*httptest.Server, *server.Server) {
		srv := server.New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts, srv
	}
	src, srcSrv := newServer()
	ds := datagen.PhoneState(200, 0.01, 91)
	sess, err := srcSrv.CreateSession(context.Background(), "default", ds.Table, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	tarPath := filepath.Join(t.TempDir(), "sess.tar")
	out, err := capture(t, []string{"backup", "-server", src.URL, "-session", sess.ID, "-out", tarPath})
	if err != nil {
		t.Fatalf("backup: %v (%s)", err, out)
	}
	if !strings.Contains(out, "backed up session "+sess.ID) {
		t.Fatalf("backup output = %q", out)
	}

	dst, _ := newServer()
	out, err = capture(t, []string{"restore", "-server", dst.URL, "-in", tarPath})
	if err != nil {
		t.Fatalf("restore: %v (%s)", err, out)
	}
	if !strings.Contains(out, `"session": "`+sess.ID+`"`) {
		t.Fatalf("restore output = %q", out)
	}

	// Restoring onto the source (which still owns the ID) must surface
	// the server's 409 as a CLI error.
	if _, err := capture(t, []string{"restore", "-server", src.URL, "-in", tarPath}); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Fatalf("restore onto source: err = %v, want 409 conflict", err)
	}
}
