// Records: what a full run writes to disk, the environment it ran in,
// and `-check`, which applies BENCHMARK.json's bounds to two record sets.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/anmat/anmat/internal/persist"
)

// environment is the block every record carries, so a number can never
// be read without the machine and settings that produced it.
type environment struct {
	Commit          string  `json:"commit"`
	GoVersion       string  `json:"go_version"`
	NumCPU          int     `json:"nproc"`
	ServerMaxProcs  int     `json:"server_gomaxprocs"`
	CPUModel        string  `json:"cpu_model"`
	Fsync           string  `json:"fsync"`
	DataFS          string  `json:"data_dir_filesystem"`
	ServerBuildS    float64 `json:"server_build_s"`
	Clients         string  `json:"clients"`
	SetupRepeats    int     `json:"setup_repeats"`
	RecoverKills    string  `json:"recover_kills"`
	DeltaPageLimit  int     `json:"delta_page_limit"`
	CompactEvery    int     `json:"compact_every"`
	AppendDirtyRate float64 `json:"append_dirty_rate"`
}

// record is one invocation's output file.
type record struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Results []*result   `json:"results"`
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem holding dir: the longest mount point
// in /proc/mounts that prefixes it.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

func newEnvironment(root, dataDir string, buildS float64, maxProcs int) environment {
	return environment{
		Commit:          gitCommit(root),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		ServerMaxProcs:  maxProcs,
		CPUModel:        cpuModel(),
		Fsync:           "every WAL append and checkpoint (-fsync)",
		DataFS:          filesystemOf(dataDir),
		ServerBuildS:    buildS,
		Clients:         "one generator process, one connection per client, at most 2",
		SetupRepeats:    setupRepeats,
		RecoverKills:    fmt.Sprintf("%d groups of %d to %d, %v each, set-up repeats between them", setupRepeats, recoverGroupMin, recoverGroupMax, recoverGroupTime),
		DeltaPageLimit:  deltaPageLimit,
		CompactEvery:    persist.DefaultCompactEvery,
		AppendDirtyRate: appendPoolErrRate,
	}
}

// printResult lists every metric of a result by name, with its unit.
func printResult(w io.Writer, r *result) {
	defs := endToEnd
	kind := "end-to-end"
	if r.Trace {
		defs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  correct=%v  attempted=%d  failed=%d\n", r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s = %.4g)\n", k, r.Counts[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// loadRecordSet reads one record file, or every *.json record in a
// directory, and groups the untraced values by workload and metric.
func loadRecordSet(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	set := make(map[string]map[string][]float64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rec.Results {
			if r.Trace {
				continue
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s: workload %s seed %d failed its output checks; a failed run is not a measurement", f, r.Workload, r.Seed)
			}
			if set[r.Workload] == nil {
				set[r.Workload] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				set[r.Workload][name] = append(set[r.Workload][name], v)
			}
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return set, nil
}

// check compares record set B against A with BENCHMARK.json's bounds:
// for every workload and end-to-end metric, B's median may be worse than
// A's by at most the metric's bound. It also prints each side's quartile
// spread, so a reader sees when the spread is wider than the bound and
// the verdict is "unresolved" rather than "unchanged".
func check(w io.Writer, bf *benchmarkFile, pathA, pathB string) (bool, error) {
	a, err := loadRecordSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecordSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %8s %7s %7s %6s  %s\n", "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, md := range bf.EndToEnd {
			va, vb := a[wl.Name][md.Name], b[wl.Name][md.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-12s missing from a record set\n", wl.Name, md.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if md.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case worse > md.Bound:
				verdict = "WORSE"
				ok = false
			case quartileSpread(va) > md.Bound || quartileSpread(vb) > md.Bound:
				verdict = "ok (spread wider than bound)"
			}
			fmt.Fprintf(w, "%-16s %-12s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, md.Name, ma, mb, worse*100, quartileSpread(va)*100, quartileSpread(vb)*100, md.Bound*100, verdict)
		}
	}
	return ok, nil
}
