// Admission control: per-tenant quotas and rate limits enforced at the
// HTTP boundary, so one hostile (or buggy) client cannot exhaust the
// process for everyone else. A tenant is whatever the X-Anmat-Tenant
// header says it is — the server does not authenticate, it partitions:
// requests without the header share the "default" tenant.
//
// Three limits, all per tenant and all optional (zero disables):
//
//   - MaxSessions  open sessions (created, uploaded, or restored)
//   - MaxRows      total table rows across the tenant's sessions; both
//     uploads and delta appends are charged, deletes are credited back
//   - DeltaRate    sustained delta batches/sec through a token bucket
//     (burst = max(1, rate)); a session's deltas draw from its owning
//     tenant's bucket no matter what header later callers send, so a
//     quota cannot be escaped by relabeling requests
//
// Rejections are 429 with a Retry-After header (the token-bucket wait
// for rate rejections, a nominal 1s for quota rejections, which only
// clear when the tenant deletes data) and count into
// anmat_admission_rejects_total{tenant,reason}.
//
// Accounting protocol for mutations: reserve under the admission lock
// before the work, settle to the observed row count after it. Settling
// to the real table size makes the books right on every path — success
// (reservation was exact), validation failure (table unchanged, the
// reservation is returned), partial shrink (deletes credit back).
package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/stream"
)

// DefaultTenant is the tenant of unlabeled requests, restored sessions,
// and datasets loaded from the command line.
const DefaultTenant = "default"

// Limits are the per-tenant admission quotas. The zero value of a field
// means "unlimited"; an all-zero Limits disables admission entirely.
type Limits struct {
	// MaxSessions caps a tenant's concurrently open sessions.
	MaxSessions int
	// MaxRows caps the total rows across a tenant's session tables.
	MaxRows int
	// DeltaRate caps sustained delta batches per second per tenant.
	DeltaRate float64
}

func (l Limits) enabled() bool {
	return l.MaxSessions > 0 || l.MaxRows > 0 || l.DeltaRate > 0
}

var admissionRejects = obs.Default.NewCounterVec("anmat_admission_rejects_total",
	"Requests rejected by admission control, by tenant and reason (sessions, rows, rate).",
	"tenant", "reason")

var (
	tenantSessions = obs.Default.NewGaugeVec("anmat_tenant_sessions",
		"Open sessions charged to each tenant.", "tenant")
	tenantRows = obs.Default.NewGaugeVec("anmat_tenant_rows",
		"Table rows charged to each tenant across its sessions.", "tenant")
)

// rejection is one admission denial: the metric reason and what to tell
// the client.
type rejection struct {
	reason     string // "sessions" | "rows" | "rate"
	detail     string
	retryAfter int // seconds, for the Retry-After header
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	sessions int
	rows     int
	tokens   float64
	last     time.Time
}

// admission enforces Limits across tenants. All methods are safe for
// concurrent use; the lock is a leaf (nothing is called while holding
// it).
type admission struct {
	limits Limits
	now    func() time.Time // injectable clock for token-bucket tests

	mu       sync.Mutex
	tenants  map[string]*tenantState
	owner    map[string]string // session ID -> owning tenant
	sessRows map[string]int    // session ID -> rows charged to its tenant
}

func newAdmission(l Limits) *admission {
	return &admission{
		limits:   l,
		now:      time.Now,
		tenants:  make(map[string]*tenantState),
		owner:    make(map[string]string),
		sessRows: make(map[string]int),
	}
}

// requestTenant resolves the tenant a request acts as.
func requestTenant(r *http.Request) string {
	if t := r.Header.Get(obs.TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

func (a *admission) tenant(name string) *tenantState {
	ts := a.tenants[name]
	if ts == nil {
		ts = &tenantState{tokens: a.burst(), last: a.now()}
		a.tenants[name] = ts
	}
	return ts
}

// burst is the token bucket capacity: one full second of the sustained
// rate, never less than one batch.
func (a *admission) burst() float64 {
	return math.Max(1, a.limits.DeltaRate)
}

// account publishes a tenant's gauges and forgets a tenant that holds
// neither a session nor rows, so a header value that owns nothing leaves
// no state behind.
func (a *admission) account(name string, ts *tenantState) {
	tenantSessions.WithLabelValues(name).Set(float64(ts.sessions))
	tenantRows.WithLabelValues(name).Set(float64(ts.rows))
	if ts.sessions == 0 && ts.rows == 0 {
		delete(a.tenants, name)
	}
}

// reserveSession charges one session and rows rows to the tenant,
// rejecting if either quota would be exceeded. Only a successful
// reservation creates the tenant's state; it must be followed by
// bindReserved (the session exists) or unreserveSession (creating it
// failed).
func (a *admission) reserveSession(tenant string, rows int) *rejection {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[tenant]
	if ts == nil {
		ts = &tenantState{} // checked against, not stored
	}
	if a.limits.MaxSessions > 0 && ts.sessions+1 > a.limits.MaxSessions {
		return &rejection{reason: "sessions", retryAfter: 1,
			detail: "session quota exhausted (" + strconv.Itoa(a.limits.MaxSessions) + " open); delete a session first"}
	}
	if a.limits.MaxRows > 0 && ts.rows+rows > a.limits.MaxRows {
		return &rejection{reason: "rows", retryAfter: 1,
			detail: "row quota exhausted (" + strconv.Itoa(ts.rows) + "+" + strconv.Itoa(rows) +
				" of " + strconv.Itoa(a.limits.MaxRows) + ")"}
	}
	ts = a.tenant(tenant)
	ts.sessions++
	ts.rows += rows
	a.account(tenant, ts)
	return nil
}

// rowsLeft is how many more rows the tenant's quota admits; -1 when rows
// are not limited.
func (a *admission) rowsLeft(tenant string) int {
	if a.limits.MaxRows <= 0 {
		return -1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	left := a.limits.MaxRows
	if ts := a.tenants[tenant]; ts != nil {
		left -= ts.rows
	}
	return max(left, 0)
}

// rowsOver is the refusal of an upload that holds more than the left rows
// rowsLeft gave when its body began to be read.
func (a *admission) rowsOver(left int) *rejection {
	return &rejection{reason: "rows", retryAfter: 1,
		detail: "row quota exhausted (upload over the " + strconv.Itoa(left) +
			" rows left of " + strconv.Itoa(a.limits.MaxRows) + ")"}
}

// unreserveSession returns a reservation whose session never came to be.
func (a *admission) unreserveSession(tenant string, rows int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenant(tenant)
	ts.sessions--
	ts.rows -= rows
	a.account(tenant, ts)
}

// bindReserved records which session a reservation became, so later
// deltas and the eventual delete settle against the right tenant.
func (a *admission) bindReserved(tenant, id string, rows int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.owner[id] = tenant
	a.sessRows[id] = rows
}

// bindSession charges an existing session to a tenant without quota
// checks — the path for sessions the operator brought up (restored from
// the data directory, loaded via -in), which must never be refused by
// their own server's quotas.
func (a *admission) bindSession(tenant, id string, rows int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenant(tenant)
	ts.sessions++
	ts.rows += rows
	a.owner[id] = tenant
	a.sessRows[id] = rows
	a.account(tenant, ts)
}

// release settles a deleted session: its rows and session slot return to
// its tenant.
func (a *admission) release(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tenant, ok := a.owner[id]
	if !ok {
		return
	}
	ts := a.tenant(tenant)
	ts.sessions--
	ts.rows -= a.sessRows[id]
	delete(a.owner, id)
	delete(a.sessRows, id)
	a.account(tenant, ts)
}

// admitDeltas gates one delta batch against the owning tenant's token
// bucket and row quota, reserving the batch's worst-case row growth.
// Returns the tenant charged (for the reject metric) and nil when
// admitted; the caller must settleRows after applying (or failing to
// apply) the batch.
func (a *admission) admitDeltas(id string, growth int) (string, *rejection) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tenant, ok := a.owner[id]
	if !ok {
		// A session nobody bound (created before admission was enabled);
		// adopt it into the default tenant with what we know.
		tenant = DefaultTenant
		a.owner[id] = tenant
		a.tenant(tenant).sessions++
		a.account(tenant, a.tenants[tenant])
	}
	ts := a.tenant(tenant)
	if a.limits.DeltaRate > 0 {
		now := a.now()
		ts.tokens = math.Min(a.burst(), ts.tokens+now.Sub(ts.last).Seconds()*a.limits.DeltaRate)
		ts.last = now
		if ts.tokens < 1 {
			wait := (1 - ts.tokens) / a.limits.DeltaRate
			return tenant, &rejection{reason: "rate", retryAfter: int(math.Ceil(wait)),
				detail: "delta rate limit (" + strconv.FormatFloat(a.limits.DeltaRate, 'g', -1, 64) + " batches/sec) exceeded"}
		}
		ts.tokens--
	}
	if growth > 0 && a.limits.MaxRows > 0 && ts.rows+growth > a.limits.MaxRows {
		return tenant, &rejection{reason: "rows", retryAfter: 1,
			detail: "row quota exhausted (" + strconv.Itoa(ts.rows) + "+" + strconv.Itoa(growth) +
				" of " + strconv.Itoa(a.limits.MaxRows) + ")"}
	}
	if growth > 0 {
		ts.rows += growth
		a.sessRows[id] += growth
		a.account(tenant, ts)
	}
	return tenant, nil
}

// settleRows reconciles a session's charged rows with the observed table
// size after a mutation, returning over-reservations (failed or
// shrinking batches) and charging growth the reservation missed.
func (a *admission) settleRows(id string, actual int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tenant, ok := a.owner[id]
	if !ok {
		return
	}
	ts := a.tenant(tenant)
	ts.rows += actual - a.sessRows[id]
	a.sessRows[id] = actual
	a.account(tenant, ts)
}

// rowGrowth is the worst-case net row growth of a batch: appended rows
// minus distinctly deleted ones, floored at zero (shrinkage is credited
// at settle time, not promised in advance).
func rowGrowth(batch stream.Batch) int {
	n := 0
	for _, op := range batch {
		switch op.Kind {
		case stream.OpAppend:
			n += len(op.Rows)
		case stream.OpDelete:
			distinct := make(map[int]bool, len(op.Drop))
			for _, r := range op.Drop {
				distinct[r] = true
			}
			n -= len(distinct)
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// writeAdmissionReject emits the 429, its Retry-After, and the metric.
func writeAdmissionReject(w http.ResponseWriter, tenant string, rej *rejection) {
	admissionRejects.WithLabelValues(tenant, rej.reason).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(rej.retryAfter))
	writeError(w, http.StatusTooManyRequests, "tenant %q: %s", tenant, rej.detail)
}
