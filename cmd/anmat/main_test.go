package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/table"
)

// writeDataset generates a small zip dataset CSV for the CLI tests.
func writeDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "zips.csv")
	ds := datagen.ZipCity(600, 0.01, 55)
	if err := ds.Table.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs run(args) with stdout redirected and returns the output.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), runErr
}

func TestCmdProfile(t *testing.T) {
	in := writeDataset(t)
	out, err := capture(t, []string{"profile", "-in", in})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "zip") || !strings.Contains(out, "type=code") {
		t.Errorf("profile output:\n%s", out)
	}
	if !strings.Contains(out, `\D{5}`) {
		t.Errorf("profile should list the zip signature:\n%s", out)
	}
}

func TestCmdDiscover(t *testing.T) {
	in := writeDataset(t)
	out, err := capture(t, []string{"discover", "-in", in})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "zip → city") {
		t.Errorf("discover output:\n%s", out)
	}
	if !strings.Contains(out, "support") {
		t.Error("tableau rows missing support annotation")
	}
}

func TestCmdDetect(t *testing.T) {
	in := writeDataset(t)
	out, err := capture(t, []string{"detect", "-in", in})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "violation(s)") {
		t.Errorf("detect output:\n%s", out)
	}
}

func TestCmdRepair(t *testing.T) {
	in := writeDataset(t)
	outPath := filepath.Join(t.TempDir(), "fixed.csv")
	out, err := capture(t, []string{"repair", "-in", in, "-out", outPath})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "applied") {
		t.Errorf("repair output:\n%s", out)
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Errorf("repaired CSV not written: %v", err)
	}
}

func TestCmdReport(t *testing.T) {
	in := writeDataset(t)
	outPath := filepath.Join(t.TempDir(), "report.md")
	if _, err := capture(t, []string{"report", "-in", in, "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "# ANMAT report") {
		t.Errorf("report content:\n%s", string(b)[:200])
	}
}

func TestCmdExperimentsSmall(t *testing.T) {
	out, err := capture(t, []string{"experiments", "-exp", "table3-d5city", "-n", "1500"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 3 block") {
		t.Errorf("experiments output:\n%s", out)
	}
}

func TestCmdStream(t *testing.T) {
	dir := t.TempDir()
	histPath := filepath.Join(dir, "history.csv")
	newPath := filepath.Join(dir, "new.csv")
	hist := datagen.ZipCity(800, 0, 66)
	if err := hist.Table.WriteCSVFile(histPath); err != nil {
		t.Fatal(err)
	}
	incoming := datagen.ZipCity(200, 0.05, 67)
	if err := incoming.Table.WriteCSVFile(newPath); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, []string{"stream", "-history", histPath, "-in", newPath})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mined") || !strings.Contains(out, "alert(s)") {
		t.Errorf("stream output:\n%s", out)
	}
	if !strings.Contains(out, "ALERT") {
		t.Error("dirty incoming rows should raise alerts")
	}
	if err := run([]string{"stream", "-history", histPath}); err == nil {
		t.Error("missing -in should error")
	}
	if err := run([]string{"stream", "-history", "/nope.csv", "-in", newPath}); err == nil {
		t.Error("missing history file should error")
	}
}

func TestCmdDMV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dirty.csv")
	ds := datagen.ZipCity(500, 0, 68)
	zi, _ := ds.Table.ColIndex("zip")
	for r := 0; r < ds.Table.NumRows(); r += 50 {
		ds.Table.SetCell(r, zi, "N/A")
	}
	if err := ds.Table.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, []string{"dmv", "-in", path})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "N/A") || !strings.Contains(out, "placeholder") {
		t.Errorf("dmv output:\n%s", out)
	}
	if err := run([]string{"dmv"}); err == nil {
		t.Error("missing -in should error")
	}
}

func TestCmdErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"profile"}); err == nil {
		t.Error("missing -in should error")
	}
	if err := run([]string{"repair", "-in", "x.csv"}); err == nil {
		t.Error("missing -out should error")
	}
	if err := run([]string{"profile", "-in", "/does/not/exist.csv"}); err == nil {
		t.Error("missing file should error")
	}
	if err := run([]string{"experiments", "-exp", "bogus"}); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Error("help should succeed")
	}
	// -coverage and -violations outside [0, 1], NaN and ±Inf included,
	// are refused before any input is read.
	for _, args := range [][]string{
		{"discover", "-in", "x.csv", "-coverage", "NaN"},
		{"detect", "-in", "x.csv", "-coverage", "-1"},
		{"repair", "-in", "x.csv", "-out", "y.csv", "-violations", "Inf"},
		{"stream", "-history", "x.csv", "-in", "y.csv", "-violations", "7"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "want a number in [0, 1]") {
			t.Errorf("%v: err = %v, want a range error", args, err)
		}
	}
}

func TestCSVTailFeed(t *testing.T) {
	ct := &csvTail{}
	// A partial record stays pending until its newline arrives.
	if rows, dropped := ct.feed([]byte("90001,Los "), 2); len(rows) != 0 || dropped != 0 {
		t.Fatalf("partial record consumed: %v (%d dropped)", rows, dropped)
	}
	rows, dropped := ct.feed([]byte("Angeles\n90002,\"San\nFrancisco\"\n"), 2)
	if len(rows) != 2 || dropped != 0 {
		t.Fatalf("rows = %v (%d dropped)", rows, dropped)
	}
	if rows[0][0] != "90001" || rows[0][1] != "Los Angeles" {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][1] != "San\nFrancisco" {
		t.Errorf("quoted newline mangled: %q", rows[1][1])
	}
	// An unterminated quote waits for the closing quote.
	if rows, _ := ct.feed([]byte("90003,\"half"), 2); len(rows) != 0 {
		t.Fatalf("unterminated quote consumed: %v", rows)
	}
	rows, _ = ct.feed([]byte(" open\"\n"), 2)
	if len(rows) != 1 || rows[0][1] != "half open" {
		t.Fatalf("rows = %v", rows)
	}
	// Ragged rows pad/truncate to the schema width; \r\n normalizes.
	rows, _ = ct.feed([]byte("only-one\na,b,c\n\"x\r\ny\",z\n"), 2)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1] != "" || len(rows[1]) != 2 || rows[2][0] != "x\ny" {
		t.Errorf("rows = %q", rows)
	}
}

func TestCSVTailFeedSkipsMalformed(t *testing.T) {
	// A genuinely malformed record (bare quote mid-field) can never be
	// fixed by more bytes: it must be dropped so later records drain.
	ct := &csvTail{}
	rows, dropped := ct.feed([]byte("x\"y,z\n90001,LA\n"), 2)
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if len(rows) != 1 || rows[0][0] != "90001" {
		t.Fatalf("rows after malformed = %v", rows)
	}
	// The tail keeps working after the drop.
	rows, dropped = ct.feed([]byte("90002,SF\n"), 2)
	if len(rows) != 1 || dropped != 0 || rows[0][1] != "SF" {
		t.Errorf("rows = %v (%d dropped)", rows, dropped)
	}
}

func TestCmdDetectFollow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "phones.csv")
	ds := datagen.PhoneState(400, 0.01, 57)
	if err := ds.Table.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}

	pf := newDetectFlags()
	if err := pf.fs.Parse([]string{"-in", path, "-coverage", "0.05", "-violations", "0.2"}); err != nil {
		t.Fatal(err)
	}
	tbl, err := table.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	se := pf.buildSession(tbl)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := se.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(se.Discovered) == 0 {
		t.Fatal("no rules mined")
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- followFile(ctx, lockedWriter{&mu, &buf}, se, path, fi.Size(), 5*time.Millisecond)
	}()

	// Append a clean and a dirty record in two writes (the second split
	// mid-record to exercise the tail buffer).
	clean := ds.Table.Row(0)
	appendFile(t, path, clean[0]+","+clean[1]+"\n"+clean[0][:4])
	time.Sleep(30 * time.Millisecond)
	appendFile(t, path, "999999,ZZ\n")

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		// Both appends may land in one poll batch or two; either way the
		// last printed diff reports the final row count.
		if strings.Contains(s, "402 row(s)") {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("follow exited early: %v\noutput:\n%s", err, s)
		case <-deadline:
			t.Fatalf("no diff printed; output:\n%s", s)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("follow: %v", err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "following ") || !strings.Contains(out, "follow stopped") {
		t.Errorf("missing banner/footer:\n%s", out)
	}
	if se.Table.NumRows() != 402 {
		t.Errorf("rows after follow = %d, want 402", se.Table.NumRows())
	}
}

// lockedWriter serializes the follow goroutine's writes against the test
// reader.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
