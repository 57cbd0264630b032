package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/table"
)

// postAs posts a body as the given tenant.
func postAs(t *testing.T, h http.Handler, tenant, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(obs.TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// lineReader hands out its text one line per Read and counts the lines,
// so that a reader buffering ahead cannot take more than it asks for. If
// then is set, it runs once when the reader has handed out at lines.
type lineReader struct {
	rest  string
	lines int
	at    int
	then  func()
}

func (r *lineReader) Read(p []byte) (int, error) {
	if r.rest == "" {
		return 0, io.EOF
	}
	line := r.rest
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i+1]
	}
	n := copy(p, line)
	if n == len(line) {
		if r.lines++; r.lines == r.at && r.then != nil {
			r.then()
		}
	}
	r.rest = r.rest[n:]
	return n, nil
}

// wantReject asserts a 429 with a Retry-After header.
func wantReject(t *testing.T, rec *httptest.ResponseRecorder, wantReason string) {
	t.Helper()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(rec.Body.String(), wantReason) {
		t.Fatalf("429 body %q does not mention %q", rec.Body.String(), wantReason)
	}
}

func TestAdmissionSessionQuota(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxSessions: 2})
	h := srv.Handler()
	csv := csvBody(t, datagen.PhoneState(100, 0.01, 41))

	var ids []string
	for i := 0; i < 2; i++ {
		rec := postAs(t, h, "acme", "/api/v1/sessions?name=d", csv)
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, rec.Code, rec.Body.String())
		}
		ids = append(ids, jsonField(t, rec, "session"))
	}
	wantReject(t, postAs(t, h, "acme", "/api/v1/sessions?name=d", csv), "session quota")

	// Quotas partition by tenant: another tenant is unaffected.
	if rec := postAs(t, h, "globex", "/api/v1/sessions?name=d", csv); rec.Code != http.StatusOK {
		t.Fatalf("other tenant: %d %s", rec.Code, rec.Body.String())
	}
	// Deleting one of the tenant's sessions frees the slot.
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+ids[0], nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := postAs(t, h, "acme", "/api/v1/sessions?name=d", csv); rec.Code != http.StatusOK {
		t.Fatalf("upload after delete: %d %s", rec.Code, rec.Body.String())
	}
	if n := admissionRejects.WithLabelValues("acme", "sessions").Value(); n < 1 {
		t.Fatalf("anmat_admission_rejects_total{acme,sessions} = %v, want >= 1", n)
	}
}

// TestAdmissionHostileTenants: 500 rejected uploads, each under a new
// X-Anmat-Tenant value, leave no tenant state behind, a tenant is
// forgotten once its last session is deleted, and no metric family holds
// more series than the registry's cap.
func TestAdmissionHostileTenants(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxRows: 30})
	h := srv.Handler()
	tenants := func() int {
		srv.adm.mu.Lock()
		defer srv.adm.mu.Unlock()
		return len(srv.adm.tenants)
	}
	big := csvBody(t, datagen.PhoneState(40, 0.01, 43))
	for i := 0; i < 500; i++ {
		wantReject(t, postAs(t, h, fmt.Sprintf("hostile-%d", i), "/api/v1/sessions?name=d", big), "row quota")
	}
	if n := tenants(); n != 0 {
		t.Fatalf("500 rejected tenants left %d tenant entries, want 0", n)
	}
	rec := postAs(t, h, "acme", "/api/v1/sessions?name=d", csvBody(t, datagen.PhoneState(20, 0.01, 43)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	if n := tenants(); n != 1 {
		t.Fatalf("a tenant holding a session: %d entries, want 1", n)
	}
	del := httptest.NewRecorder()
	h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+jsonField(t, rec, "session"), nil))
	if del.Code != http.StatusOK {
		t.Fatalf("delete: %d", del.Code)
	}
	if n := tenants(); n != 0 {
		t.Fatalf("after deleting the tenant's last session: %d entries, want 0", n)
	}

	samples, fams, err := obs.ParseText(obs.Default.Text())
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]map[string]bool)
	for _, s := range samples {
		name := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] == "histogram" {
				name = base
			}
		}
		labels := make(map[string]string, len(s.Labels))
		for k, v := range s.Labels {
			if k != "le" {
				labels[k] = v
			}
		}
		if series[name] == nil {
			series[name] = make(map[string]bool)
		}
		series[name][fmt.Sprint(labels)] = true
	}
	for name, set := range series {
		if len(set) > 1000 {
			t.Errorf("family %s holds %d series, over the cap of 1000", name, len(set))
		}
	}
}

func TestAdmissionRowQuota(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxRows: 250})
	h := srv.Handler()

	// An upload over the row quota is refused before the pipeline runs.
	wantReject(t, postAs(t, h, "acme", "/api/v1/sessions?name=big",
		csvBody(t, datagen.PhoneState(300, 0.01, 42))), "row quota")

	// ... and before the rest of its body is read: of a 10 000-row upload
	// the reader takes the header and one row past the 250 left.
	body := &lineReader{rest: csvBody(t, datagen.PhoneState(10_000, 0.01, 42))}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions?name=huge", body)
	req.Header.Set(obs.TenantHeader, "acme")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantReject(t, rec, "row quota")
	if body.lines > 1+251 {
		t.Fatalf("the refused upload's reader took %d lines, want at most the header and 251 rows", body.lines)
	}

	rec = postAs(t, h, "acme", "/api/v1/sessions?name=ok",
		csvBody(t, datagen.PhoneState(200, 0.01, 42)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := jsonField(t, rec, "session")

	// Appends are charged against the remaining 50 rows.
	appendN := func(n int) *httptest.ResponseRecorder {
		rows := make([]string, n)
		for i := range rows {
			rows[i] = `["(555) 000-0000","CA"]`
		}
		return postAs(t, h, "acme", "/api/v1/sessions/"+id+"/deltas",
			`{"deltas":[{"op":"append","rows":[`+strings.Join(rows, ",")+`]}]}`)
	}
	wantReject(t, appendN(60), "row quota")
	if rec := appendN(40); rec.Code != http.StatusOK {
		t.Fatalf("append within quota: %d %s", rec.Code, rec.Body.String())
	}
	// Deletes credit rows back, making room again.
	rec = postAs(t, h, "acme", "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"delete","drop":[0,1,2,3,4,5,6,7,8,9]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete deltas: %d %s", rec.Code, rec.Body.String())
	}
	if rec := appendN(15); rec.Code != http.StatusOK {
		t.Fatalf("append after delete: %d %s", rec.Code, rec.Body.String())
	}
}

// The row cap is the budget as the body began to stream: rows the tenant
// frees while it streams do not let the head of a larger upload become a
// session.
func TestAdmissionRowQuotaFreedMidUpload(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxRows: 250})
	h := srv.Handler()
	rec := postAs(t, h, "acme", "/api/v1/sessions?name=a",
		csvBody(t, datagen.PhoneState(200, 0.01, 42)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := jsonField(t, rec, "session")

	// 300 rows against the 50 left; session a goes after 20 of them.
	body := &lineReader{rest: csvBody(t, datagen.PhoneState(300, 0.01, 43)), at: 20, then: func() {
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+id, nil))
		if del.Code != http.StatusOK {
			t.Fatalf("delete: %d %s", del.Code, del.Body.String())
		}
	}}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions?name=b", body)
	req.Header.Set(obs.TenantHeader, "acme")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantReject(t, rec, "row quota")
	if body.lines > 1+51 {
		t.Fatalf("the refused upload's reader took %d lines, want at most the header and 51 rows", body.lines)
	}
	list := httptest.NewRecorder()
	h.ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/api/v1/sessions", nil))
	if strings.Contains(list.Body.String(), `"session":`) {
		t.Fatalf("a refused upload left a session: %s", list.Body.String())
	}
}

func TestAdmissionDeltaRate(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{DeltaRate: 2}) // burst 2, refill 2/sec
	h := srv.Handler()

	// Deterministic clock: the bucket refills only when we advance it.
	// Installed before any request so the bucket is seeded from it too.
	now := time.Unix(1000, 0)
	srv.adm.now = func() time.Time { return now }

	csv := csvBody(t, datagen.PhoneState(100, 0.01, 43))
	rec := postAs(t, h, "acme", "/api/v1/sessions?name=d", csv)
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := jsonField(t, rec, "session")

	delta := `{"deltas":[{"op":"update","row":0,"column":"state","value":"CA"}]}`
	post := func() *httptest.ResponseRecorder {
		return postAs(t, h, "ignored-label", "/api/v1/sessions/"+id+"/deltas", delta)
	}
	for i := 0; i < 2; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			t.Fatalf("burst delta %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec = post()
	wantReject(t, rec, "rate limit")
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1 (0.5s wait rounded up)", ra)
	}
	// The bucket belongs to the session's owning tenant, whatever header
	// the delta carried.
	if n := admissionRejects.WithLabelValues("acme", "rate").Value(); n < 1 {
		t.Fatalf("rejects{acme,rate} = %v, want >= 1", n)
	}
	now = now.Add(time.Second) // refills 2 tokens
	for i := 0; i < 2; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			t.Fatalf("refilled delta %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	wantReject(t, post(), "rate limit")
}

// jsonField pulls a string field out of a JSON response.
func jsonField(t *testing.T, rec *httptest.ResponseRecorder, key string) string {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	v, _ := out[key].(string)
	if v == "" {
		t.Fatalf("response %q missing %q", rec.Body.String(), key)
	}
	return v
}

// TestAdmissionUploadCap: an upload declaring more bytes than the cap is a 413
// answered before the body is read, and leaves no session and no
// admission reservation behind.
func TestAdmissionUploadCap(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxSessions: 1})
	h := srv.Handler()
	body := &readCounter{r: strings.NewReader(csvBody(t, datagen.PhoneState(20, 0.01, 44)))}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions?name=d", body)
	req.ContentLength = maxUploadBody + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload declaring %d bytes: %d %s, want 413", req.ContentLength, rec.Code, rec.Body.String())
	}
	if body.n != 0 {
		t.Errorf("the 413 read %d body bytes first", body.n)
	}
	wantNothingLeft(t, srv, "the 413")
	// The one session slot is still free.
	if rec := postAs(t, h, "", "/api/v1/sessions?name=d", csvBody(t, datagen.PhoneState(20, 0.01, 44))); rec.Code != http.StatusOK {
		t.Fatalf("upload after the 413: %d %s", rec.Code, rec.Body.String())
	}
}

// TestAdmissionUploadWidthCap: an upload whose CSV header is wider than
// table.MaxColumns is refused from the header alone — its rows are never
// read — and leaves no session, session ID or admission reservation
// behind.
func TestAdmissionUploadWidthCap(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxSessions: 1})
	h := srv.Handler()
	cols := make([]string, table.MaxColumns+1)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	header := strings.Join(cols, ",") + "\n"
	row := strings.Repeat("x,", table.MaxColumns) + "x\n"
	body := &readCounter{r: strings.NewReader(header + strings.Repeat(row, 1000))}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sessions?name=wide", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("upload %d columns wide: %d %s, want 400", len(cols), rec.Code, rec.Body.String())
	}
	// The CSV reader buffers 4 KiB at a time: the header and at most one
	// buffer past it.
	if body.n > len(header)+4096 {
		t.Errorf("the 400 read %d body bytes; the header is %d", body.n, len(header))
	}
	wantNothingLeft(t, srv, "the 400")
	// The one session slot is still free, and no session ID was spent.
	rec = postAs(t, h, "", "/api/v1/sessions?name=d", csvBody(t, datagen.PhoneState(20, 0.01, 44)))
	var created struct{ Session string }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &created) != nil || created.Session != "s1" {
		t.Fatalf("upload after the 400: %d %s, want 200 as s1", rec.Code, rec.Body.String())
	}
}

// TestUploadParamsRejected: a coverage= or violations= that is not a
// number in [0, 1] — NaN and ±Inf included — is a 400 answered before the
// body is read, and leaves no session and no admission reservation
// behind; the bounds themselves are accepted.
func TestUploadParamsRejected(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	srv.SetLimits(Limits{MaxSessions: 1})
	h := srv.Handler()
	csv := csvBody(t, datagen.PhoneState(20, 0.01, 44))
	for _, q := range []string{
		"coverage=NaN", "coverage=Inf", "coverage=-Inf", "coverage=-1", "coverage=1.5",
		"violations=NaN", "violations=7", "violations=-0.1",
	} {
		body := &readCounter{r: strings.NewReader(csv)}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/sessions?name=d&"+q, body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", q, rec.Code, rec.Body.String())
		}
		if body.n != 0 {
			t.Errorf("%s: the 400 read %d body bytes first", q, body.n)
		}
	}
	wantNothingLeft(t, srv, "the 400s")
	if rec := postAs(t, h, "", "/api/v1/sessions?name=d&coverage=0&violations=1", csv); rec.Code != http.StatusOK {
		t.Fatalf("coverage=0&violations=1: %d %s, want 200", rec.Code, rec.Body.String())
	}
}

// wantNothingLeft asserts that a refused upload left no session and no
// admission reservation behind.
func wantNothingLeft(t *testing.T, srv *Server, after string) {
	t.Helper()
	srv.mu.RLock()
	sessions := len(srv.sessions)
	srv.mu.RUnlock()
	srv.adm.mu.Lock()
	tenants := len(srv.adm.tenants)
	srv.adm.mu.Unlock()
	if sessions != 0 || tenants != 0 {
		t.Fatalf("after %s: %d session(s), %d tenant reservation(s), want none", after, sessions, tenants)
	}
}

// readCounter counts the bytes read through it.
type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestConfirmEmptyBodyAndCap covers the two confirm-body fixes: an empty
// body is a legal confirm-everything (even when the EOF arrives
// wrapped), and a body over the cap is a 413, not an OOM.
func TestConfirmEmptyBodyAndCap(t *testing.T) {
	h, id := newStreamServer(t)
	rec := postAs(t, h, "", "/api/v1/sessions/"+id+"/confirm", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("empty confirm body: %d %s", rec.Code, rec.Body.String())
	}
	huge := `{"ids":["` + strings.Repeat("x", maxConfirmBody+1024) + `"]}`
	rec = postAs(t, h, "", "/api/v1/sessions/"+id+"/confirm", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized confirm body: %d, want 413", rec.Code)
	}
}
