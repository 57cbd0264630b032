// Targets: the system under test, either as real anmat-server processes
// (the end-to-end runs) or as the same server wired up inside the bench
// process (the quick smoke path and the traced handler replay).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/server"
)

// serverProcs is the GOMAXPROCS every server process runs with; it is
// recorded in the environment block of each record.
const serverProcs = 2

// topology says which processes a workload needs.
type topology struct {
	Workers int  // 0 = one server; K = a coordinator plus K shard workers
	Limits  bool // admission control on, set high enough never to reject
}

// target is a running system under test.
type target interface {
	URL() string
	// Crash stops the API server without any shutdown work (SIGKILL for a
	// process); Restart brings it back over the same data directory and
	// returns once /healthz answers.
	Crash() error
	Restart() error
	// PeakRSSMB sums the peak resident set (VmHWM) of the server
	// processes.
	PeakRSSMB() float64
	// MetricsURLs lists every process's /metrics endpoint.
	MetricsURLs() []string
	Close()
}

// limits are the admission limits of topology.Limits.
var limits = server.Limits{MaxSessions: 64, MaxRows: 50_000_000, DeltaRate: 1_000_000}

func waitHealthy(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ok within %v (last error: %v)", url, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// procTarget runs real anmat-server processes.
type procTarget struct {
	bin, dir string
	topo     topology
	addr     string
	coord    *exec.Cmd
	workers  []*exec.Cmd
	wurls    []string
	logs     []*os.File
}

var workerBanner = regexp.MustCompile(`listening on (\S+)`)

func (p *procTarget) spawn(name string, args ...string) (*exec.Cmd, *bufio.Reader, error) {
	logf, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("%s.%d.log", name, len(p.logs))))
	if err != nil {
		return nil, nil, err
	}
	p.logs = append(p.logs, logf)
	cmd := exec.Command(p.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs), "TMPDIR="+p.dir)
	cmd.Stderr = logf
	// A bench killed mid-run must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out *bufio.Reader
	if name == "worker" {
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		out = bufio.NewReader(pipe)
	} else {
		cmd.Stdout = logf
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd, out, nil
}

func startProcs(bin, dir string, topo topology) (target, error) {
	p := &procTarget{bin: bin, dir: dir, topo: topo}
	for s := 0; s < topo.Workers; s++ {
		cmd, out, err := p.spawn("worker", "-worker", "-shard-id", strconv.Itoa(s), "-of", strconv.Itoa(topo.Workers), "-addr", "127.0.0.1:0")
		if err != nil {
			p.Close()
			return nil, err
		}
		p.workers = append(p.workers, cmd)
		line, err := out.ReadString('\n')
		m := workerBanner.FindStringSubmatch(line)
		if err != nil || m == nil {
			p.Close()
			return nil, fmt.Errorf("worker %d printed no listen address (%q, %v)", s, line, err)
		}
		p.wurls = append(p.wurls, "http://"+m[1])
	}
	addr, err := freeAddr()
	if err != nil {
		p.Close()
		return nil, err
	}
	p.addr = addr
	if err := p.Restart(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *procTarget) URL() string     { return "http://" + p.addr }
func (p *procTarget) DataDir() string { return filepath.Join(p.dir, "data") }

func (p *procTarget) MetricsURLs() []string {
	out := []string{p.URL() + "/metrics"}
	for _, u := range p.wurls {
		out = append(out, u+"/metrics")
	}
	return out
}

func (p *procTarget) Restart() error {
	args := []string{"-addr", p.addr, "-data", p.DataDir(), "-fsync"}
	if p.topo.Workers > 0 {
		args = append(args, "-workers", strings.Join(p.wurls, ","), "-cluster-data", filepath.Join(p.dir, "cluster"))
	}
	if p.topo.Limits {
		args = append(args,
			"-max-sessions", strconv.Itoa(limits.MaxSessions),
			"-max-rows", strconv.Itoa(limits.MaxRows),
			"-delta-rate", strconv.FormatFloat(limits.DeltaRate, 'f', -1, 64))
	}
	cmd, _, err := p.spawn("server", args...)
	if err != nil {
		return err
	}
	p.coord = cmd
	return waitHealthy(p.URL(), 30*time.Second)
}

func kill(cmd *exec.Cmd) {
	if cmd == nil || cmd.Process == nil {
		return
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait() // reaps; "signal: killed" is the expected outcome
}

func (p *procTarget) Crash() error {
	kill(p.coord)
	p.coord = nil
	return nil
}

func (p *procTarget) PeakRSSMB() float64 {
	var kb float64
	for _, cmd := range append([]*exec.Cmd{p.coord}, p.workers...) {
		if cmd != nil && cmd.Process != nil {
			kb += vmHWMkB(cmd.Process.Pid)
		}
	}
	return kb / 1024
}

func (p *procTarget) Close() {
	kill(p.coord)
	for _, w := range p.workers {
		kill(w)
	}
	for _, f := range p.logs {
		f.Close()
	}
}

// vmHWMkB reads a process's peak resident set from /proc.
func vmHWMkB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb
			}
		}
	}
	return 0
}

// inprocTarget is the same server assembled inside the bench process,
// on a real loopback listener. wrap, when set, goes around the server's
// handler (the traced replay times requests with it).
type inprocTarget struct {
	dir   string
	topo  topology
	fsync bool
	wrap  func(http.Handler) http.Handler

	ln      net.Listener
	srv     *http.Server
	pm      *persist.Manager
	workers []*http.Server
	wurls   []string
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns when Close stops the listener
	return srv, "http://" + ln.Addr().String(), nil
}

func startInproc(dir string, topo topology, fsync bool, wrap func(http.Handler) http.Handler) (*inprocTarget, error) {
	t := &inprocTarget{dir: dir, topo: topo, fsync: fsync, wrap: wrap}
	for s := 0; s < topo.Workers; s++ {
		w := cluster.NewWorker(s, topo.Workers)
		w.SetLogf(nil)
		srv, url, err := serve(w.Handler())
		if err != nil {
			t.Close()
			return nil, err
		}
		t.workers = append(t.workers, srv)
		t.wurls = append(t.wurls, url)
	}
	if err := t.Restart(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *inprocTarget) URL() string           { return "http://" + t.ln.Addr().String() }
func (t *inprocTarget) DataDir() string       { return filepath.Join(t.dir, "data") }
func (t *inprocTarget) MetricsURLs() []string { return []string{t.URL() + "/metrics"} }
func (t *inprocTarget) PeakRSSMB() float64    { return vmHWMkB(os.Getpid()) / 1024 }

func (t *inprocTarget) Restart() error {
	pm, err := persist.Open(t.DataDir(), persist.Options{Fsync: t.fsync})
	if err != nil {
		return err
	}
	cfg := core.DefaultSystemConfig()
	cfg.Workers = t.wurls
	if len(t.wurls) > 0 {
		cfg.ClusterDir = filepath.Join(t.dir, "cluster")
	}
	sys := core.NewSystemWith(docstore.NewMem(), cfg)
	sys.CreateProject("default")
	s := server.New(sys)
	if t.topo.Limits {
		s.SetLimits(limits)
	}
	if _, err := s.RestoreSessions(pm); err != nil {
		pm.Close()
		return err
	}
	s.AttachPersist(pm)
	h := s.Handler()
	if t.wrap != nil {
		h = t.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pm.Close()
		return err
	}
	t.pm, t.ln = pm, ln
	t.srv = &http.Server{Handler: h}
	go func(srv *http.Server) { _ = srv.Serve(ln) }(t.srv)
	return nil
}

// Crash drops the server without draining or checkpointing: what is on
// disk is what was journaled, as after a kill.
func (t *inprocTarget) Crash() error {
	if t.srv == nil {
		return nil
	}
	err := t.srv.Close()
	if cerr := t.pm.Close(); err == nil {
		err = cerr
	}
	t.srv, t.pm = nil, nil
	return err
}

func (t *inprocTarget) Close() {
	_ = t.Crash()
	for _, w := range t.workers {
		_ = w.Close()
	}
}

// serverMaxProcs asks a running server for its GOMAXPROCS.
func serverMaxProcs(url string) int {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var h struct {
		MaxProcs int `json:"max_procs"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&h)
	return h.MaxProcs
}
