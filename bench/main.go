// Command bench is the repository's serving benchmark: it builds
// cmd/anmat-server, drives it as separate processes over loopback HTTP
// with seed-generated traffic, verifies every output against an
// in-process reference, and reports the metrics BENCHMARK.json names.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run; last stdout line is the result object
//	bench -seed N -out FILE                            all workloads, untraced and traced; writes a record
//	bench -check A B                                   apply BENCHMARK.json's bounds to two record sets
//	bench -quick                                       in-process smoke run of every workload
//
// See README.md in this directory for every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// The seed the committed records use, and the seed kept aside: a later
// change that claims a gain must also show it on the held-out seed, which
// nobody tunes against.
const (
	defaultSeed = 2019
	heldOutSeed = 7919
)

// maxRunTime bounds one run of one workload.
const maxRunTime = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "anmat-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (a directory holding cmd/anmat-server) above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/anmat-server from the checkout into the build
// directory and reports how long that took.
func buildServer(root string) (string, float64, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "anmat-server")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/anmat-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/anmat-server: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// resultLine is the object the builder contract reads from the last line
// of standard output.
func resultLine(r *result) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return b
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all, untraced and traced)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 0, "length of the timed phase (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced replay")
	out := fs.String("out", "", "write the run's record to this file")
	doCheck := fs.Bool("check", false, "compare two record sets (files or directories): bench -check A B")
	quick := fs.Bool("quick", false, "smoke run: every workload at about 1/20 size against the in-process server, no subprocesses")
	rootFlag := fs.String("root", "", "repository root (default: found above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return fail(err)
		}
	}
	if *doCheck {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-check takes two record sets"))
		}
		bf, err := loadBenchmarkFile(root)
		if err != nil {
			return fail(err)
		}
		ok, err := check(stdout, bf, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	work, err := os.MkdirTemp(mkBuildDir(root), "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	cfg := runConfig{Seed: *seed, Seconds: *seconds}
	env := environment{}
	specs := workloads
	if *quick {
		cfg.Quick = true
		if cfg.Seconds == 0 {
			cfg.Seconds = 0.15
		}
		cfg.Start = func(dir string, topo topology) (target, error) { return startInproc(dir, topo, false, nil) }
		specs = nil
		for _, w := range workloads {
			specs = append(specs, w.scaled(0.05))
		}
		env = newEnvironment(root, work, 0, 0)
	} else {
		if cfg.Seconds == 0 {
			bf, err := loadBenchmarkFile(root)
			if err != nil {
				return fail(err)
			}
			cfg.Seconds = float64(bf.RunSeconds)
		}
		bin, buildS, err := buildServer(root)
		if err != nil {
			return fail(err)
		}
		cfg.Start = func(dir string, topo topology) (target, error) { return startProcs(bin, dir, topo) }
		env = newEnvironment(root, work, buildS, serverProcs)
	}
	if *workload != "" {
		var one []workloadSpec
		for _, s := range specs {
			if s.Name == *workload {
				one = append(one, s)
			}
		}
		if one == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = one
	}

	rec := record{Env: env, Seed: *seed, Seconds: cfg.Seconds}
	allCorrect := true
	var last *result
	for i := range specs {
		spec := &specs[i]
		modes := []bool{false, true}
		if *workload != "" {
			modes = []bool{*trace == 1}
		}
		for _, traced := range modes {
			c := cfg
			c.WorkDir = filepath.Join(work, fmt.Sprintf("%s-%v", spec.Name, traced))
			// The builder contract gives a run 180 s; a run that hangs must
			// end as a failure, not as a timeout of whoever started it.
			watchdog := time.AfterFunc(maxRunTime, func() {
				fmt.Fprintf(stderr, "bench: %s did not finish within %v\n", spec.Name, maxRunTime)
				os.Exit(1)
			})
			var res *result
			var err error
			if traced {
				c.SpanFile = filepath.Join(mkBuildDir(root), fmt.Sprintf("spans-%s-%d.jsonl", spec.Name, *seed))
				res, err = runTraced(spec, c)
			} else {
				res, err = runUntraced(spec, c)
			}
			watchdog.Stop()
			os.RemoveAll(c.WorkDir)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", spec.Name, err))
			}
			printResult(stdout, res)
			rec.Results = append(rec.Results, res)
			allCorrect = allCorrect && res.Correct
			last = res
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if *workload != "" {
		fmt.Fprintf(stdout, "%s\n", resultLine(last))
	}
	if !allCorrect {
		fmt.Fprintln(stderr, "bench: output verification failed")
		return 1
	}
	return 0
}

// mkBuildDir is where everything a run leaves behind goes: the built
// server, scratch data directories, span dumps. It is inside the
// checkout and named in .gitignore.
func mkBuildDir(root string) string {
	dir := filepath.Join(root, ".bench_build")
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
