// Workload runners. A runner drives a backend — the server over HTTP,
// or the traced in-process replay — with the seed's script in closed
// loops (each client sends its next request only when the previous one
// has been answered, because a session's deltas address rows by index
// and so have one ordered writer), and verifies every output it relies
// on against the in-process reference.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
)

// backend is what a runner talks to. Responses are the HTTP bodies (the
// traced replay renders the same bytes); durations run from request sent
// to body read.
type backend interface {
	create(c int, name string, csv []byte) (id string, violations int, d time.Duration, err error)
	rules(c int, id string) ([]*pfd.PFD, error)
	deltas(c int, id string, op scriptOp) ([]byte, time.Duration, error)
	since(c int, id string, cursor int64) ([]byte, time.Duration, error)
	page(c int, id string, limit, offset int) ([]byte, time.Duration, error)
	drop(c int, id string) (time.Duration, error)
}

// httpBackend drives a target over loopback HTTP, one connection per
// client.
type httpBackend struct {
	clients []*client
}

func newHTTPBackend(tg target, clients int) *httpBackend {
	b := &httpBackend{}
	for c := 0; c < clients; c++ {
		tenant := ""
		if clients > 1 {
			tenant = "tenant-" + strconv.Itoa(c)
		}
		b.clients = append(b.clients, newClient(tg, tenant))
	}
	return b
}

func sessionPath(id string) string { return "/api/v1/sessions/" + id }

func (b *httpBackend) create(c int, name string, csv []byte) (string, int, time.Duration, error) {
	return b.clients[c].upload(name, csv)
}

func (b *httpBackend) rules(c int, id string) ([]*pfd.PFD, error) {
	return b.clients[c].rules(id)
}

func (b *httpBackend) deltas(c int, id string, op scriptOp) ([]byte, time.Duration, error) {
	return b.clients[c].do(http.MethodPost, sessionPath(id)+"/deltas?limit="+strconv.Itoa(deltaPageLimit), op.Body)
}

func (b *httpBackend) since(c int, id string, cursor int64) ([]byte, time.Duration, error) {
	return b.clients[c].do(http.MethodGet, sessionPath(id)+"/violations?since="+strconv.FormatInt(cursor, 10), nil)
}

func (b *httpBackend) page(c int, id string, limit, offset int) ([]byte, time.Duration, error) {
	return b.clients[c].do(http.MethodGet, fmt.Sprintf("%s/violations?limit=%d&offset=%d", sessionPath(id), limit, offset), nil)
}

func (b *httpBackend) drop(c int, id string) (time.Duration, error) {
	_, d, err := b.clients[c].do(http.MethodDelete, sessionPath(id), nil)
	return d, err
}

func (b *httpBackend) reset() {
	for _, c := range b.clients {
		c.reset()
	}
}

// outcome is what one phase of a run measured. Latencies are in
// milliseconds.
type outcome struct {
	Ack, Read []float64
	Rows      int           // rows acknowledged by write requests
	Wall      time.Duration // wall time of the timed phase
	Attempted int
	Failed    int
	Failures  []string
	F1        []float64
	// Executed is how many script ops each client ran (the traced replay
	// repeats exactly these).
	Executed []int
	Changes  int // diff changes reported by delta responses
	ReqBytes int
	RespSize int
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 20 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) merge(p *outcome) {
	o.addChecks(p)
	o.Ack = append(o.Ack, p.Ack...)
	o.Read = append(o.Read, p.Read...)
	o.Rows += p.Rows
	o.F1 = append(o.F1, p.F1...)
	o.Changes += p.Changes
	o.ReqBytes += p.ReqBytes
	o.RespSize += p.RespSize
}

// addChecks folds in another phase's attempts and failures, not its
// measurements.
func (o *outcome) addChecks(p *outcome) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.Failures = append(o.Failures, p.Failures...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveSession is the client-side state of one session: its model, rule
// set, the folded image of its violation set, and the last acknowledged
// sequence number.
type liveSession struct {
	id    string
	m     *model
	rules []*pfd.PFD
	fold  *folded
	seq   int64
	count int // violation count last reported by the server
}

// streamRun is one set-up stream workload.
type streamRun struct {
	spec     *workloadSpec
	be       backend
	sessions [][]*liveSession // per client
	gens     []*scriptGen     // per client
	// serial runs every client on the calling goroutine, interleaved
	// round-robin (the traced replay records spans from one goroutine).
	serial bool
}

func sessionName(spec *workloadSpec, i int) string {
	return spec.Sessions[i].Family + strconv.Itoa(i)
}

// streamInputs generates every session's model and CSV, and each
// client's script generator, from the seed alone.
func streamInputs(spec *workloadSpec, seed int64) (models [][]*model, csvs [][][]byte, gens []*scriptGen, err error) {
	models = make([][]*model, spec.Clients)
	csvs = make([][][]byte, spec.Clients)
	for i, s := range spec.Sessions {
		m, csv, err := newModel(sessionName(spec, i), s.tableSpec, s.PoolRows, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		c := i % spec.Clients
		models[c] = append(models[c], m)
		csvs[c] = append(csvs[c], csv)
	}
	for c := 0; c < spec.Clients; c++ {
		gens = append(gens, newScriptGen(subSeed(seed, spec.Name, "script", c), models[c], spec.Mix, spec.PollGap))
	}
	return models, csvs, gens, nil
}

// warmup is the first batch of every session's script: one appended
// row. It makes the server build the session's incremental engine and
// write its baseline checkpoint, which is set-up, not steady state.
func warmup(m *model) scriptOp {
	op := scriptOp{Kind: opAppend, Rows: 1}
	op.batch = stream.Batch{stream.AppendRows(m.pool[m.poolNext])}
	m.apply(op.batch, [][]string{m.poolClean[m.poolNext]})
	m.poolNext = (m.poolNext + 1) % len(m.pool)
	op.Body = deltaBody(op.batch)
	return op
}

// setupStream creates every session on the backend, clients in
// parallel, and leaves each session warmed up with its violation set
// read once (the base the since= polls fold onto).
func setupStream(spec *workloadSpec, seed int64, be backend, serial bool) (*streamRun, error) {
	models, csvs, gens, err := streamInputs(spec, seed)
	if err != nil {
		return nil, err
	}
	run := &streamRun{spec: spec, be: be, gens: gens, sessions: make([][]*liveSession, spec.Clients), serial: serial}
	errs := make([]error, spec.Clients)
	run.each(func(c int) {
		for i, m := range models[c] {
			ls, err := createSession(be, c, m, csvs[c][i])
			if err != nil {
				errs[c] = fmt.Errorf("set up session %s: %w", m.name, err)
				return
			}
			run.sessions[c] = append(run.sessions[c], ls)
		}
	})
	return run, errors.Join(errs...)
}

// each runs fn once per client: concurrently, or in turn when serial.
func (r *streamRun) each(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < r.spec.Clients; c++ {
		if r.serial {
			fn(c)
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func createSession(be backend, c int, m *model, csv []byte) (*liveSession, error) {
	id, _, _, err := be.create(c, m.name, csv)
	if err != nil {
		return nil, err
	}
	ls := &liveSession{id: id, m: m}
	if ls.rules, err = be.rules(c, id); err != nil {
		return nil, err
	}
	if len(ls.rules) == 0 {
		return nil, fmt.Errorf("session %s mined no rules; the workload cannot stream against it", id)
	}
	out, _, err := be.deltas(c, id, warmup(m))
	if err != nil {
		return nil, err
	}
	var dr diffResponse
	if err := json.Unmarshal(out, &dr); err != nil {
		return nil, err
	}
	ls.seq = dr.Seq
	body, _, err := be.page(c, id, 0, 0)
	if err != nil {
		return nil, err
	}
	var vr struct {
		Count      int             `json:"count"`
		Violations []pfd.Violation `json:"violations"`
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		return nil, err
	}
	ls.count = vr.Count
	ls.fold = newFolded(ls.seq, vr.Violations)
	return ls, nil
}

// exec runs one script op against the backend and checks the response's
// sequence number; it reports whether the client can go on.
func (r *streamRun) exec(c int, op scriptOp, o *outcome) bool {
	ls := r.sessions[c][op.Session]
	o.Attempted++
	switch op.Kind {
	case opSince:
		out, d, err := r.be.since(c, ls.id, ls.fold.cursor)
		if err != nil {
			o.fail("%s since=%d: %v", ls.id, ls.fold.cursor, err)
			return false
		}
		o.Read = append(o.Read, ms(d))
		o.RespSize += len(out)
		var dr diffResponse
		if err := json.Unmarshal(out, &dr); err != nil {
			o.fail("%s since: %v", ls.id, err)
			return false
		}
		if dr.Seq != ls.seq {
			o.fail("%s since=%d answered seq %d, last acknowledged batch is %d", ls.id, ls.fold.cursor, dr.Seq, ls.seq)
			return false
		}
		ls.fold.fold(&dr)
	case opPage:
		offset := int(op.Frac*float64(ls.count)) / 100 * 100
		out, d, err := r.be.page(c, ls.id, 100, offset)
		if err != nil {
			o.fail("%s page: %v", ls.id, err)
			return false
		}
		o.Read = append(o.Read, ms(d))
		o.RespSize += len(out)
		var pr struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(out, &pr); err != nil {
			o.fail("%s page: %v", ls.id, err)
			return false
		}
		ls.count = pr.Count
	default:
		out, d, err := r.be.deltas(c, ls.id, op)
		if err != nil {
			o.fail("%s %s: %v", ls.id, op.Kind, err)
			return false
		}
		o.Ack = append(o.Ack, ms(d))
		o.ReqBytes += len(op.Body)
		o.RespSize += len(out)
		var dr struct {
			Seq   int64 `json:"seq"`
			Rows  int   `json:"rows"`
			Count int   `json:"count"`
		}
		if err := json.Unmarshal(out, &dr); err != nil {
			o.fail("%s %s: %v", ls.id, op.Kind, err)
			return false
		}
		if dr.Seq != ls.seq+1 || dr.Rows != len(ls.m.rows) {
			o.fail("%s %s acknowledged seq %d with %d rows, want seq %d with %d rows", ls.id, op.Kind, dr.Seq, dr.Rows, ls.seq+1, len(ls.m.rows))
			return false
		}
		ls.seq = dr.Seq
		o.Rows += op.Rows
		o.Changes += dr.Count
	}
	return true
}

// runFor drives every client's closed loop until the deadline; runOps
// drives each for a fixed number of ops (nil counts = burst ops each).
func (r *streamRun) runFor(d time.Duration) *outcome {
	deadline := time.Now().Add(d)
	return r.loop(func(c, done int) bool { return time.Now().Before(deadline) })
}

func (r *streamRun) runOps(counts []int) *outcome {
	return r.loop(func(c, done int) bool { return done < counts[c] })
}

func (r *streamRun) loop(more func(c, done int) bool) *outcome {
	parts := make([]*outcome, r.spec.Clients)
	for c := range parts {
		parts[c] = &outcome{}
	}
	t0 := time.Now()
	if r.serial {
		for live := true; live; {
			live = false
			for c, o := range parts {
				if o.Failed == 0 && more(c, o.Attempted) {
					r.exec(c, r.gens[c].next(), o)
					live = true
				}
			}
		}
	} else {
		r.each(func(c int) {
			for o := parts[c]; more(c, o.Attempted); {
				if !r.exec(c, r.gens[c].next(), o) {
					return
				}
			}
		})
	}
	total := &outcome{Wall: time.Since(t0)}
	for _, p := range parts {
		total.merge(p)
		total.Executed = append(total.Executed, p.Attempted)
	}
	return total
}

// settle writes to every session until its journal holds exactly tail
// batches since the last checkpoint (the server compacts a session's
// journal every persist.DefaultCompactEvery batches, counted from its
// first), then confirms the length with the server.
func (r *streamRun) settle(be *httpBackend, tail int) *outcome {
	if tail < 1 || tail >= persist.DefaultCompactEvery {
		panic(fmt.Sprintf("bench: a journal never holds %d batches (compaction every %d)", tail, persist.DefaultCompactEvery))
	}
	parts := make([]*outcome, r.spec.Clients)
	r.each(func(c int) {
		o := &outcome{}
		parts[c] = o
		for si, ls := range r.sessions[c] {
			for ls.seq%persist.DefaultCompactEvery != int64(tail) {
				if !r.exec(c, r.gens[c].nextWrite(si), o) {
					return
				}
			}
			o.Attempted++
			var sum struct {
				Persistence struct {
					WALRecords int `json:"wal_records"`
				} `json:"persistence"`
			}
			out, _, err := be.clients[c].do(http.MethodGet, sessionPath(ls.id), nil)
			if err == nil {
				err = json.Unmarshal(out, &sum)
			}
			if err == nil && sum.Persistence.WALRecords != tail {
				err = fmt.Errorf("journal holds %d batches, want %d", sum.Persistence.WALRecords, tail)
			}
			if err != nil {
				o.fail("%s before the kill: %v", ls.id, err)
			}
		}
	})
	total := &outcome{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// references renders, per session, the body GET violations must return
// for the table the script has produced so far.
func (r *streamRun) references() (map[string][]byte, map[string][]pfd.Violation, error) {
	bodies := make(map[string][]byte)
	sets := make(map[string][]pfd.Violation)
	for _, cs := range r.sessions {
		for _, ls := range cs {
			vs, err := refViolations(ls.m, ls.rules)
			if err != nil {
				return nil, nil, err
			}
			sets[ls.id] = vs
			bodies[ls.id] = violationsBody(ls.id, vs, 0, 0)
		}
	}
	return bodies, sets, nil
}

// verify checks every session against its reference: the violation set
// as served, and the set a since= poller has folded together. Both must
// be byte-equal to the full detection.
func (r *streamRun) verify(bodies map[string][]byte, o *outcome) {
	for c, cs := range r.sessions {
		for _, ls := range cs {
			o.Attempted++
			got, _, err := r.be.page(c, ls.id, 0, 0)
			if err != nil {
				o.fail("%s final violations: %v", ls.id, err)
				continue
			}
			if err := sameBytes(ls.id+" violations vs full detection", got, bodies[ls.id]); err != nil {
				o.fail("%v", err)
				continue
			}
			out, _, err := r.be.since(c, ls.id, ls.fold.cursor)
			if err != nil {
				o.fail("%s since=%d: %v", ls.id, ls.fold.cursor, err)
				continue
			}
			var dr diffResponse
			if err := json.Unmarshal(out, &dr); err != nil {
				o.fail("%s since: %v", ls.id, err)
				continue
			}
			if dr.Seq != ls.seq {
				o.fail("%s at seq %d, last acknowledged batch is %d", ls.id, dr.Seq, ls.seq)
				continue
			}
			ls.fold.fold(&dr)
			if err := sameBytes(ls.id+" folded since= diffs vs full detection", violationsBody(ls.id, ls.fold.violations(), 0, 0), bodies[ls.id]); err != nil {
				o.fail("%v", err)
			}
		}
	}
}

func (r *streamRun) f1(sets map[string][]pfd.Violation) []float64 {
	var out []float64
	for _, cs := range r.sessions {
		for _, ls := range cs {
			out = append(out, f1Rows(sets[ls.id], ls.m.dirtyRows()))
		}
	}
	return out
}

// recoverOnce kills the server, restarts it, and checks that every
// acknowledged batch survived: each session serves the reference bytes
// and resolves its poll cursor. It returns kill → verified.
func recoverOnce(tg target, be *httpBackend, verify func(o *outcome), o *outcome) (time.Duration, error) {
	t0 := time.Now()
	if err := tg.Crash(); err != nil {
		return 0, err
	}
	be.reset()
	if err := tg.Restart(); err != nil {
		return 0, err
	}
	verify(o)
	return time.Since(t0), nil
}

// uploadRun is the set-up one-shot workload: a pool of generated tables
// with their ground truth.
type uploadRun struct {
	spec *uploadSpec
	be   backend
	pool []uploadInput
	next int
}

type uploadInput struct {
	name  string
	m     *model
	csv   []byte
	truth map[int]bool
}

func setupUpload(spec *workloadSpec, seed int64, be backend) (*uploadRun, error) {
	u := spec.Upload
	run := &uploadRun{spec: u, be: be}
	for i := 0; i < u.Pool; i++ {
		family := u.Rotation[i%len(u.Rotation)]
		name := family + strconv.Itoa(i)
		m, csv, err := newModel(name, tableSpec{Family: family, Rows: u.Rows, ErrRate: u.ErrRate}, 0, subSeed(seed, "upload", i))
		if err != nil {
			return nil, err
		}
		run.pool = append(run.pool, uploadInput{name: name, m: m, csv: csv, truth: m.dirtyRows()})
	}
	return run, nil
}

// uploaded is what one cycle read back, kept for verification after the
// timed phase so that checking does not sit inside it.
type uploaded struct {
	in    *uploadInput
	id    string
	rules []*pfd.PFD
	pages [][]byte
}

// cycle is one user: upload → every violation page → (delete). It
// returns the time spent inside requests.
func (r *uploadRun) cycle(o *outcome, keep bool) (*uploaded, time.Duration, bool) {
	in := &r.pool[r.next%len(r.pool)]
	r.next++
	o.Attempted++
	id, count, d, err := r.be.create(0, in.name, in.csv)
	if err != nil {
		o.fail("upload %s: %v", in.name, err)
		return nil, d, false
	}
	busy := d
	o.Ack = append(o.Ack, ms(d))
	o.ReqBytes += len(in.csv)
	up := &uploaded{in: in, id: id}
	for offset := 0; offset == 0 || offset < count; offset += r.spec.PageSize {
		o.Attempted++
		page, d, err := r.be.page(0, id, r.spec.PageSize, offset)
		busy += d
		if err != nil {
			o.fail("%s page at %d: %v", id, offset, err)
			return nil, busy, false
		}
		o.Read = append(o.Read, ms(d))
		o.RespSize += len(page)
		up.pages = append(up.pages, page)
	}
	if up.rules, err = r.be.rules(0, id); err != nil {
		o.fail("%s rules: %v", id, err)
		return nil, busy, false
	}
	if !keep {
		o.Attempted++
		d, err := r.be.drop(0, id)
		busy += d
		if err != nil {
			o.fail("delete %s: %v", id, err)
			return nil, busy, false
		}
	}
	o.Rows += len(in.m.rows)
	return up, busy, true
}

// runFor uploads until the deadline, finishing the cycle in flight.
func (r *uploadRun) runFor(d time.Duration) (*outcome, []*uploaded) {
	deadline := time.Now().Add(d)
	o := &outcome{}
	var ups []*uploaded
	for time.Now().Before(deadline) {
		up, busy, ok := r.cycle(o, false)
		o.Wall += busy
		if !ok {
			break
		}
		ups = append(ups, up)
	}
	o.Executed = []int{len(ups)}
	return o, ups
}

// verify checks every page an upload served against the full detection
// over the uploaded table, and scores the served set against the
// injected truth.
func (r *uploadRun) verify(ups []*uploaded, o *outcome) {
	type ref struct {
		vs []pfd.Violation
		f1 float64
	}
	refs := make(map[*uploadInput]*ref)
	for _, up := range ups {
		o.Attempted++
		rf := refs[up.in]
		if rf == nil {
			vs, err := refViolations(up.in.m, up.rules)
			if err != nil {
				o.fail("%s reference detection: %v", up.id, err)
				continue
			}
			rf = &ref{vs: vs, f1: f1Rows(vs, up.in.truth)}
			refs[up.in] = rf
		}
		bad := false
		for i, page := range up.pages {
			want := violationsBody(up.id, rf.vs, r.spec.PageSize, i*r.spec.PageSize)
			if err := sameBytes(fmt.Sprintf("%s (%s) page %d vs full detection", up.id, up.in.name, i), page, want); err != nil {
				o.fail("%v", err)
				bad = true
				break
			}
		}
		if want := (len(rf.vs) + r.spec.PageSize - 1) / r.spec.PageSize; !bad && len(up.pages) < want {
			o.fail("%s served %d pages, the full detection fills %d", up.id, len(up.pages), want)
		}
		o.F1 = append(o.F1, rf.f1)
	}
}
