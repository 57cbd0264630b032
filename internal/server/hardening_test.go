package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/persist"
)

// TestHardeningMultiTenantRecovery is the hostile-traffic drill this PR
// exists for: several tenants hammer a quota-limited, fsync-on server
// with concurrent delta batches (some deliberately over quota), their
// sessions commit to their journals at the same time, and a simulated
// crash + restart must bring every session back byte-identical —
// violations and `violations?since=` cursors included. Run under -race
// in CI's hardening step.
func TestHardeningMultiTenantRecovery(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	m, err := persist.Open(dir, persist.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(core.NewSystem(docstore.NewMem()))
	if _, err := srv.RestoreSessions(m); err != nil {
		t.Fatal(err)
	}
	srv.AttachPersist(m)
	srv.SetLimits(Limits{MaxSessions: 2, MaxRows: 400, DeltaRate: 10000})
	h := srv.Handler()

	// One session per tenant, each admitted well inside its row quota.
	const tenants = 4
	ids := make([]string, tenants)
	for i := range ids {
		rec := postAs(t, h, fmt.Sprintf("t%d", i),
			"/api/v1/sessions?name=d"+fmt.Sprint(i),
			csvBody(t, datagen.PhoneState(150, 0.01, int64(60+i))))
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, rec.Code, rec.Body.String())
		}
		ids[i] = jsonField(t, rec, "session")
	}

	// Concurrent load: every tenant fires small in-quota appends (the
	// sessions journal and fsync concurrently, each into its own file)
	// interleaved with hostile 300-row appends that must always bounce
	// off the row quota with a 429, never a partial apply.
	const batches = 12
	rows := func(n int) string {
		s := ""
		for j := 0; j < n; j++ {
			if j > 0 {
				s += ","
			}
			s += `["(555) 010-9999","CA"]`
		}
		return s
	}
	var rejected atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, tenants*batches)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant, id := fmt.Sprintf("t%d", i), ids[i]
			for b := 0; b < batches; b++ {
				if b%4 == 3 {
					rec := postAs(t, h, tenant, "/api/v1/sessions/"+id+"/deltas",
						`{"deltas":[{"op":"append","rows":[`+rows(300)+`]}]}`)
					if rec.Code != http.StatusTooManyRequests {
						errs <- fmt.Errorf("tenant %s over-quota append: %d, want 429", tenant, rec.Code)
						return
					}
					rejected.Add(1)
					continue
				}
				rec := postAs(t, h, tenant, "/api/v1/sessions/"+id+"/deltas",
					`{"deltas":[{"op":"append","rows":[`+rows(2)+`]},{"op":"update","row":`+fmt.Sprint(b)+`,"column":"state","value":"ZZ"}]}`)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("tenant %s batch %d: %d %s", tenant, b, rec.Code, rec.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rejected.Load() != tenants*batches/4 {
		t.Fatalf("over-quota rejects = %d, want %d", rejected.Load(), tenants*batches/4)
	}

	// Capture every session's externally visible state, cursors included.
	want := make(map[string]string)
	var queries []string
	for _, id := range ids {
		queries = append(queries,
			"/api/v1/sessions/"+id+"/violations",
			"/api/v1/sessions/"+id+"/violations?since=3",
			"/api/v1/sessions/"+id+"/violations?since=7",
		)
	}
	for _, q := range queries {
		want[q] = mustJSON(t, h, q)
	}

	// Crash: drop the server, reopen the data directory cold.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := persist.Open(dir, persist.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	srv2 := New(core.NewSystem(docstore.NewMem()))
	n, err := srv2.RestoreSessions(m2)
	if err != nil {
		t.Fatal(err)
	}
	if n != tenants {
		t.Fatalf("restored %d sessions, want %d", n, tenants)
	}
	srv2.AttachPersist(m2)
	h2 := srv2.Handler()
	for _, q := range queries {
		if got := mustJSON(t, h2, q); got != want[q] {
			t.Errorf("after recovery %s:\n got %s\nwant %s", q, got, want[q])
		}
	}
	// Neither manager's checkpoint writers (nor anything else the drill
	// started) outlive their Close.
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesBackTo(t, base)
}
