// Command anmat is the command-line interface to the ANMAT system:
//
//	anmat profile   -in data.csv
//	anmat discover  -in data.csv [-coverage 0.05] [-violations 0.02]
//	anmat detect    -in data.csv [-coverage 0.05] [-violations 0.02]
//	anmat repair    -in data.csv -out fixed.csv
//	anmat backup    -server http://host:8080 -session s1 [-out s1.anmat.tar]
//	anmat restore   -server http://host:8080 -in s1.anmat.tar
//	anmat experiments [-exp table3-d1] [-n 20000]
//
// profile prints the Figure 3 view (per-column patterns), discover the
// Figure 4 view (PFD tableaux), detect the Figure 5 view (violations),
// repair applies majority/constant repairs, and experiments regenerates
// the paper's evaluation artifacts.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/dmv"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/experiments"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/report"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "anmat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	// Ctrl-C cancels the pipeline mid-discovery instead of killing the
	// process between writes. Once cancelled, restore the default signal
	// behaviour so a second Ctrl-C force-kills even in code that does not
	// consult ctx.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	switch args[0] {
	case "profile":
		return cmdProfile(args[1:])
	case "discover":
		return cmdDiscover(ctx, args[1:])
	case "detect":
		return cmdDetect(ctx, args[1:])
	case "repair":
		return cmdRepair(ctx, args[1:])
	case "report":
		return cmdReport(ctx, args[1:])
	case "stream":
		return cmdStream(ctx, args[1:])
	case "dmv":
		return cmdDMV(args[1:])
	case "backup":
		return cmdBackup(args[1:])
	case "restore":
		return cmdRestore(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "experiments":
		return cmdExperiments(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: anmat <profile|discover|detect|repair|experiments> [flags]

  profile     -in data.csv                         per-column pattern listing
  discover    -in data.csv [-coverage f] [-violations f]   mine PFDs
  detect      -in data.csv [-coverage f] [-violations f]   mine + detect errors
              -follow tails -in for appended rows, printing violation diffs
              -data dir makes the session durable: a restart restores rules,
              violations, and ingested rows, and -follow resumes the tail
              -shards K partitions incremental detection across K engines
              (byte-identical results; per-shard WALs under -data)
              -workers http://...,... runs the shards on remote workers
              (anmat-server -worker) over the /shard/v1 API
  repair      -in data.csv -out fixed.csv          mine + detect + apply repairs
  report      -in data.csv [-out report.md]        full pipeline as Markdown
  stream      -history clean.csv -in new.csv       mine from history, validate new rows
  dmv         -in data.csv                         flag disguised missing values
  backup      -server url -session id [-out f.tar] download a server session
  restore     -server url -in f.tar                import a backup on a server
  trace       -server url <trace-id>               render one request's span tree
              -list lists retained traces; -slow tails slow/errored ones
  experiments [-exp id] [-n rows]                  regenerate paper artifacts`)
}

type pipelineFlags struct {
	fs          *flag.FlagSet
	in          *string
	coverage    *float64
	violations  *float64
	parallelism *int
	shards      *int
	workers     *string
}

func newPipelineFlags(name string) pipelineFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	d := core.DefaultParams()
	return pipelineFlags{
		fs:          fs,
		in:          fs.String("in", "", "input CSV file (required)"),
		coverage:    fs.Float64("coverage", d.MinCoverage, "minimum coverage γ"),
		violations:  fs.Float64("violations", d.AllowedViolations, "allowed violation ratio"),
		parallelism: fs.Int("parallelism", 0, "pipeline workers: discovery candidates and detection/repair fan-out (0 = GOMAXPROCS)"),
		shards:      fs.Int("shards", 1, "incremental-detection shards: hash-partition the table on block keys across K independent engines (results byte-identical at any K; speeds up -follow ingestion on multicore)"),
		workers:     fs.String("workers", "", "comma-separated shard worker base URLs (anmat-server -worker): run incremental detection distributed over them, one shard per worker (overrides -shards; results byte-identical)"),
	}
}

func (p pipelineFlags) session(args []string) (*core.Session, error) {
	if err := p.fs.Parse(args); err != nil {
		return nil, err
	}
	if *p.in == "" {
		return nil, fmt.Errorf("-in is required")
	}
	t, err := table.ReadCSVFile(*p.in)
	if err != nil {
		return nil, err
	}
	return p.buildSession(t), nil
}

// system builds the in-memory single-process system configured from the
// parsed flags.
func (p pipelineFlags) system() *core.System {
	cfg := core.DefaultSystemConfig()
	cfg.Parallelism = *p.parallelism
	cfg.Shards = *p.shards
	for _, w := range strings.Split(*p.workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			cfg.Workers = append(cfg.Workers, w)
		}
	}
	return core.NewSystemWith(docstore.NewMem(), cfg)
}

// params returns the session parameters from the parsed flags.
func (p pipelineFlags) params() core.Params {
	return core.Params{MinCoverage: *p.coverage, AllowedViolations: *p.violations}
}

// buildSession binds an already-loaded table to a fresh single-session
// system configured from the parsed flags.
func (p pipelineFlags) buildSession(t *table.Table) *core.Session {
	return p.system().NewSession("cli", t, p.params())
}

func cmdProfile(args []string) error {
	pf := newPipelineFlags("profile")
	se, err := pf.session(args)
	if err != nil {
		return err
	}
	tp := se.RunProfile()
	fmt.Printf("table %s: %d rows, %d columns\n\n", tp.Table, tp.Rows, len(tp.Columns))
	for i, cp := range tp.Columns {
		fmt.Printf("column %-20s type=%-8s distinct=%-6d avg_len=%.1f\n",
			cp.Name, cp.Type, cp.Distinct, cp.AvgLen)
		col := se.Table.InternedColumn(i)
		sums := profile.ColumnPatterns(col)
		// Text columns additionally list per-token patterns, following
		// the Figure 3 position convention (token number, first = 0).
		if cp.Type == profile.Text {
			sums = append(sums, profile.TokenPatterns(col)...)
		}
		for j, ps := range sums {
			if j >= 8 {
				fmt.Println("    …")
				break
			}
			fmt.Printf("    %s::%d, %d\n", ps.Pattern, ps.Position, ps.Frequency)
		}
	}
	return nil
}

func cmdDiscover(ctx context.Context, args []string) error {
	pf := newPipelineFlags("discover")
	se, err := pf.session(args)
	if err != nil {
		return err
	}
	se.RunProfile()
	ps, err := se.RunDiscovery(ctx)
	if err != nil {
		return err
	}
	if len(ps) == 0 {
		fmt.Println("no PFDs found; try lowering -coverage or raising -violations")
		return nil
	}
	for _, p := range ps {
		fmt.Printf("%s → %s  (coverage %.1f%%)\n", p.LHS, p.RHS, p.Coverage*100)
		for _, row := range p.Tableau.Rows() {
			fmt.Printf("  %s  [support %d]\n", row, row.Support)
		}
	}
	return nil
}

func cmdDetect(ctx context.Context, args []string) error {
	pf := newPipelineFlags("detect")
	stats := pf.fs.Bool("stats", false, "print per-rule detection timing")
	follow := pf.fs.Bool("follow", false, "after detecting, tail the CSV for appended rows and print incremental violation diffs (Ctrl-C to stop)")
	poll := pf.fs.Duration("poll", 500*time.Millisecond, "polling interval of -follow")
	dataDir := pf.fs.String("data", "", "durability directory: checkpoint the session and journal -follow deltas there; a restart restores mined rules, violations, and ingested rows instead of redoing the work")
	if err := pf.fs.Parse(args); err != nil {
		return err
	}
	if *pf.in == "" {
		return fmt.Errorf("-in is required")
	}

	// With -data, the system is built once and every persisted session is
	// restored into it first: restored IDs are adopted into the ID
	// sequence, so a fresh session for a new table can never collide with
	// (and silently overwrite) another table's persisted session.
	sys := pf.system()
	var pm *persist.Manager
	restored := false
	var se *core.Session
	var offset int64
	if *dataDir != "" {
		var err error
		if pm, err = persist.Open(*dataDir, persist.Options{}); err != nil {
			return err
		}
		defer pm.Close()
		if se, offset, restored, err = restoreDetectSession(pm, sys, *pf.in, *follow); err != nil {
			return err
		}
	}
	if se == nil {
		var err error
		if se, offset, err = func() (*core.Session, int64, error) {
			if !*follow {
				t, err := table.ReadCSVFile(*pf.in)
				if err != nil {
					return nil, 0, err
				}
				return sys.NewSession("cli", t, pf.params()), 0, nil
			}
			// Follow mode snapshots the file into memory so the tail offset
			// is exactly the end of what the table was loaded from — rows
			// appended while the pipeline runs are picked up by the tail.
			data, err := os.ReadFile(*pf.in)
			if err != nil {
				return nil, 0, err
			}
			t, err := table.ReadCSV(table.NameFromPath(*pf.in), bytes.NewReader(data))
			if err != nil {
				return nil, 0, err
			}
			return sys.NewSession("cli", t, pf.params()), int64(len(data)), nil
		}(); err != nil {
			return err
		}
	}
	if restored {
		fmt.Printf("restored session from %s: %d row(s), %d PFD(s), %d violation(s) (checkpointed params: coverage %g, violations %g)\n",
			*dataDir, se.Table.NumRows(), len(se.Discovered), len(se.Violations),
			se.Params.MinCoverage, se.Params.AllowedViolations)
	} else {
		if err := se.Run(ctx); err != nil {
			return err
		}
		if pm != nil {
			se.SetPersist(pm)
			if err := se.Checkpoint(); err != nil {
				return err
			}
		}
		fmt.Printf("%d PFD(s), %d violation(s)\n", len(se.Discovered), len(se.Violations))
	}
	if *stats {
		for _, st := range se.DetectStats {
			fmt.Printf("  rule %-45s rows %-3d violations %-5d %v\n",
				st.PFDID, st.Rows, st.Violations, st.Duration.Round(time.Microsecond))
		}
	}
	for i, v := range se.Violations {
		if i >= 50 {
			fmt.Printf("… %d more\n", len(se.Violations)-50)
			break
		}
		cells := make([]string, len(v.Cells))
		for j, c := range v.Cells {
			cells[j] = c.String()
		}
		fmt.Printf("  rule %-45s cells %-30s observed %q expected %q\n",
			v.Row, strings.Join(cells, " "), v.Observed, v.Expected)
	}
	if *follow {
		return followFile(ctx, os.Stdout, se, *pf.in, offset, *poll)
	}
	return nil
}

// restoreDetectSession restores every persisted session into sys (so
// their IDs are reserved — a fresh session can never collide with and
// overwrite another table's persisted state; the full-rehydration cost is
// accepted since CLI data directories hold few sessions) and looks for
// one matching the input file's table name — mined rules, violation set,
// and ingested rows come back, so a restarted `detect -data` skips
// discovery and detection entirely.
//
// The restored state is only served if it still describes the file: in
// one-shot mode the file is re-read and must equal the checkpointed
// table (otherwise the stale session is dropped and the caller re-runs
// the pipeline); in follow mode the file's leading records must match
// the restored rows, and the returned offset is where tailing resumes.
//
// Sessions are keyed by table name — the file's basename — so two
// different files sharing a basename in one -data directory look like
// one dataset that keeps changing and thrash each other's checkpoint
// (results stay correct; only the restore shortcut is lost). Dedicate a
// data directory per dataset.
func restoreDetectSession(pm *persist.Manager, sys *core.System, path string, follow bool) (*core.Session, int64, bool, error) {
	sessions, err := pm.Restore(sys)
	if err != nil {
		return nil, 0, false, err
	}
	name := table.NameFromPath(path)
	var se *core.Session
	for _, s := range sessions {
		if s.Table.Name() == name {
			se = s
			break
		}
	}
	if se == nil {
		return nil, 0, false, nil
	}
	if !follow {
		cur, err := table.ReadCSVFile(path)
		if err != nil {
			return nil, 0, false, err
		}
		if !sameTable(se.Table, cur) {
			fmt.Printf("input %s changed since its checkpoint; dropping the stale session and re-running the pipeline\n", path)
			if err := pm.Drop(se.ID); err != nil {
				return nil, 0, false, err
			}
			return nil, 0, false, nil
		}
		return se, 0, true, nil
	}
	offset, err := resumeOffset(path, se.Table)
	if err != nil {
		return nil, 0, false, fmt.Errorf("resume %s: %w (remove %s to start fresh)", path, err, pm.Dir())
	}
	return se, offset, true, nil
}

// sameTable reports whether two tables hold identical schemas and cells.
func sameTable(a, b *table.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	ac, bc := a.Columns(), b.Columns()
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			if a.Cell(r, c) != b.Cell(r, c) {
				return false
			}
		}
	}
	return true
}

// resumeOffset returns the byte offset just past the header and the
// restored table's rows in the CSV at path — where a restored follow
// session resumes tailing. It applies the same record semantics as
// csvTail.feed — cells normalized, ragged rows padded/truncated,
// genuinely malformed records skipped — so any file history the previous
// run ingested (malformed drops included) aligns. Follow ingestion is
// append-only, so the surviving leading records must be exactly the
// already-ingested rows: a shorter file means truncation or rotation, a
// diverging record means the file was rewritten, and resuming over
// either would be silent corruption.
func resumeOffset(path string, t *table.Table) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	hr := csv.NewReader(bytes.NewReader(b))
	hr.FieldsPerRecord = -1
	if _, err := hr.Read(); err != nil {
		return 0, fmt.Errorf("read header: %w", err)
	}
	offset := hr.InputOffset()
	pending := b[offset:]
	ncols := t.NumCols()
	shortErr := func(rows int) error {
		return fmt.Errorf("file holds %d record(s) but the restored table has %d rows (truncated or rotated?)", rows, t.NumRows())
	}
	for i := 0; i < t.NumRows(); {
		// final=true: the file is static, so an unterminated trailing
		// record is exactly what the previous run's load ingested.
		rec, consumed, malformed, incomplete := nextRecord(pending, ncols, true)
		if incomplete {
			return 0, shortErr(i)
		}
		pending = pending[consumed:]
		offset += int64(consumed)
		if malformed {
			continue // the previous run's tail dropped it too
		}
		for j := 0; j < ncols; j++ {
			if rec[j] != t.Cell(i, j) {
				return 0, fmt.Errorf("file record %d diverges from the restored row (file rewritten?)", i+1)
			}
		}
		i++
	}
	return offset, nil
}

// csvTail incrementally parses a growing CSV byte stream: complete
// records are consumed, a trailing partial record (no newline yet, or an
// unterminated quote) stays pending until more bytes arrive.
type csvTail struct {
	pending []byte
}

// feed appends new bytes and returns the complete records they close
// (normalized and padded/truncated to ncols like table.ReadCSV rows)
// plus the number of malformed records it had to drop — see nextRecord
// for the per-record semantics.
func (ct *csvTail) feed(b []byte, ncols int) (rows [][]string, dropped int) {
	ct.pending = append(ct.pending, b...)
	for {
		rec, consumed, malformed, incomplete := nextRecord(ct.pending, ncols, false)
		if incomplete {
			break // wait for more bytes
		}
		ct.pending = ct.pending[consumed:]
		if malformed {
			dropped++
			continue
		}
		rows = append(rows, rec)
	}
	return rows, dropped
}

// nextRecord decodes the leading CSV record of pending with the tail's
// record semantics: cells normalized, ragged rows padded/truncated to
// ncols. It is the ONE decoder both live tailing (csvTail.feed) and
// crash resume (resumeOffset) drive — their alignment guarantee depends
// on identical behavior, so neither may grow its own copy.
//
// A parse error that consumed the whole buffer means the record may
// still be growing (unterminated quote, missing newline) and comes back
// incomplete; an error that stopped mid-buffer is genuinely malformed —
// waiting cannot fix it, so consumed skips past it (one line when the
// reader made no progress). With final set (no more bytes will ever
// arrive), a parseable record without a trailing newline is complete —
// exactly what table.ReadCSV ingests from a file that ends without one.
func nextRecord(pending []byte, ncols int, final bool) (rec []string, consumed int, malformed, incomplete bool) {
	if len(pending) == 0 {
		return nil, 0, false, true
	}
	r := csv.NewReader(bytes.NewReader(pending))
	r.FieldsPerRecord = -1
	rec, err := r.Read()
	if err != nil {
		off := int(r.InputOffset())
		if off >= len(pending) {
			return nil, 0, false, true // incomplete tail
		}
		if off == 0 {
			// Defensive: the reader made no progress; skip one line.
			nl := bytes.IndexByte(pending, '\n')
			if nl < 0 {
				return nil, 0, false, true
			}
			off = nl + 1
		}
		return nil, off, true, false
	}
	end := int(r.InputOffset())
	if !final && end >= len(pending) && pending[len(pending)-1] != '\n' {
		return nil, 0, false, true // record may still be growing
	}
	for i := range rec {
		rec[i] = table.NormalizeCell(rec[i])
	}
	switch {
	case len(rec) < ncols:
		padded := make([]string, ncols)
		copy(padded, rec)
		rec = padded
	case len(rec) > ncols:
		rec = rec[:ncols]
	}
	return rec, end, false, false
}

// followFile tails the CSV at path from offset, routing appended records
// through the session's incremental engine and printing one violation
// diff per batch. It returns nil when ctx is cancelled (Ctrl-C).
func followFile(ctx context.Context, w io.Writer, se *core.Session, path string, offset int64, poll time.Duration) error {
	eng, err := se.Stream()
	if err != nil {
		return fmt.Errorf("follow: %w (no PFDs mined; loosen -coverage/-violations)", err)
	}
	fmt.Fprintf(w, "following %s: %d row(s), %d violation(s), seq %d\n",
		path, se.Table.NumRows(), len(se.Violations), eng.Seq())
	tail := &csvTail{}
	ncols := se.Table.NumCols()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintf(w, "follow stopped (%v) at seq %d, %d row(s), %d violation(s)\n",
				context.Cause(ctx), eng.Seq(), se.Table.NumRows(), len(se.Violations))
			return nil
		case <-ticker.C:
		}
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("follow %s: %w", path, err)
		}
		if fi.Size() < offset {
			return fmt.Errorf("follow %s: file shrank (%d -> %d bytes); restart to re-detect", path, offset, fi.Size())
		}
		if fi.Size() == offset {
			continue
		}
		chunk, err := readFrom(path, offset)
		if err != nil {
			return fmt.Errorf("follow %s: %w", path, err)
		}
		offset += int64(len(chunk))
		rows, dropped := tail.feed(chunk, ncols)
		if dropped > 0 {
			fmt.Fprintf(w, "warning: skipped %d malformed CSV record(s)\n", dropped)
		}
		if len(rows) == 0 {
			continue
		}
		diff, err := se.ApplyDeltas(stream.Batch{stream.AppendRows(rows...)})
		if err != nil {
			return fmt.Errorf("follow %s: %w", path, err)
		}
		printDiff(w, diff)
	}
}

// readFrom reads the file's bytes from offset to EOF.
func readFrom(path string, offset int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// printDiff renders one batch's violation diff, capped per direction.
func printDiff(w io.Writer, diff *stream.Diff) {
	fmt.Fprintf(w, "seq %d: +%d -%d violation(s), %d row(s)\n",
		diff.Seq, len(diff.Added), len(diff.Removed), diff.Rows)
	const cap = 20
	printSide := func(sign string, vs []pfd.Violation) {
		for i, v := range vs {
			if i >= cap {
				fmt.Fprintf(w, "  %s … %d more\n", sign, len(vs)-cap)
				return
			}
			cells := make([]string, len(v.Cells))
			for j, c := range v.Cells {
				cells[j] = c.String()
			}
			fmt.Fprintf(w, "  %s rule %-45s cells %-30s observed %q expected %q\n",
				sign, v.Row, strings.Join(cells, " "), v.Observed, v.Expected)
		}
	}
	printSide("+", diff.Added)
	printSide("-", diff.Removed)
}

func cmdRepair(ctx context.Context, args []string) error {
	pf := newPipelineFlags("repair")
	out := pf.fs.String("out", "", "output CSV for the repaired table (required)")
	se, err := pf.session(args)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if err := se.Run(ctx); err != nil {
		return err
	}
	n, err := detect.Apply(se.Table, se.Repairs)
	if err != nil {
		return err
	}
	if err := se.Table.WriteCSVFile(*out); err != nil {
		return err
	}
	fmt.Printf("applied %d repair(s); wrote %s\n", n, *out)
	return nil
}

func cmdReport(ctx context.Context, args []string) error {
	pf := newPipelineFlags("report")
	out := pf.fs.String("out", "", "output Markdown path (default stdout)")
	se, err := pf.session(args)
	if err != nil {
		return err
	}
	if err := se.Run(ctx); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return report.Write(w, se, report.Options{})
}

// cmdDMV scans every column for disguised missing values (placeholders,
// sentinel numbers, signature outliers) and prints the suspects.
func cmdDMV(args []string) error {
	fs := flag.NewFlagSet("dmv", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	t, err := table.ReadCSVFile(*in)
	if err != nil {
		return err
	}
	total := 0
	for i, col := range t.Columns() {
		suspects := dmv.Detect(t.InternedColumn(i), dmv.Options{})
		if len(suspects) == 0 {
			continue
		}
		fmt.Printf("column %s:\n", col)
		for _, s := range suspects {
			total++
			fmt.Printf("  %-20q rows=%-5d score=%.2f %s\n", s.Value, len(s.Rows), s.Score, s.Reason)
		}
	}
	if total == 0 {
		fmt.Println("no disguised missing values found")
	}
	return nil
}

// cmdStream mines PFDs from a trusted history CSV, then appends the rows
// of the incoming CSV to it one by one through the session's incremental
// engine, printing an alert per violation an arrival adds — exactly the
// ones a full detection over history and arrivals would report, those a
// majority flip creates on older rows included. The row an alert names
// is the arrival that raised it.
func cmdStream(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	history := fs.String("history", "", "trusted history CSV (required)")
	in := fs.String("in", "", "incoming rows CSV with the same schema (required)")
	d := core.DefaultParams()
	coverage := fs.Float64("coverage", d.MinCoverage, "minimum coverage γ")
	violations := fs.Float64("violations", d.AllowedViolations, "allowed violation ratio")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *history == "" || *in == "" {
		return fmt.Errorf("-history and -in are required")
	}
	hist, err := table.ReadCSVFile(*history)
	if err != nil {
		return err
	}
	incoming, err := table.ReadCSVFile(*in)
	if err != nil {
		return err
	}
	sys := core.NewSystem(docstore.NewMem())
	se := sys.NewSession("stream", hist, core.Params{
		MinCoverage:       *coverage,
		AllowedViolations: *violations,
	})
	se.RunProfile()
	pfds, err := se.RunDiscovery(ctx)
	if err != nil {
		return err
	}
	if len(pfds) == 0 {
		return fmt.Errorf("no PFDs mined from history; loosen -coverage/-violations")
	}
	fmt.Printf("mined %d PFD(s) from %d history rows\n", len(pfds), hist.NumRows())

	alerts := 0
	for r := 0; r < incoming.NumRows(); r++ {
		if r&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("stream cancelled at row %d: %w", r, err)
			}
		}
		diff, err := se.ApplyDeltasCtx(ctx, stream.Batch{stream.AppendRows(incoming.Row(r))})
		if err != nil {
			return err
		}
		for _, v := range diff.Added {
			alerts++
			if alerts <= 100 {
				fmt.Printf("ALERT row %d: observed %q, rule %s expects %q\n",
					r, v.Observed, v.Row, v.Expected)
			}
		}
	}
	fmt.Printf("streamed %d rows: %d alert(s)\n", incoming.NumRows(), alerts)
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id (default: all); one of "+strings.Join(experiments.Names(), ", "))
	n := fs.Int("n", 20000, "problem size (rows)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp == "" {
		return experiments.RunAll(os.Stdout, *n)
	}
	return experiments.Run(os.Stdout, *exp, *n)
}
