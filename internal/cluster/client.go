// RemoteNode: the shard.Node implementation that speaks /shard/v1 to a
// worker. Every call is request-scoped (context with timeout) and wrapped
// in the bounded-retry policy; retrying an apply is safe because the
// worker deduplicates by sequence number, and a sequence-conflict (409)
// or validation (4xx) response is marked permanent so the retry budget is
// reserved for actual transport failure.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
)

// ClientOptions tunes a RemoteNode's transport behavior. The zero value
// takes the defaults noted per field.
type ClientOptions struct {
	// Timeout bounds each HTTP request (default 5s). A worker that cannot
	// answer within it counts as a failed attempt.
	Timeout time.Duration
	// Retry is the per-call retry policy (default DefaultBackoff).
	Retry Backoff
	// HTTPClient overrides the transport (tests inject flaky ones); nil
	// uses a private http.Client.
	HTTPClient *http.Client
	// Epoch identifies the coordinator this node speaks for: it is sent
	// in the boot body and in the EpochHeader of every request, and a
	// worker booted under it refuses batches from any other epoch — the
	// fence that keeps a stale coordinator from silently mutating state a
	// newer one owns. cluster.New fills it with a fresh unique value when
	// empty; set it only to pin a deterministic epoch in tests.
	Epoch string
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retry.Tries == 0 {
		o.Retry = DefaultBackoff()
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	return o
}

// RemoteNode drives one worker over HTTP. It implements shard.Node, so a
// coordinator cannot tell it from an in-process LocalNode — that symmetry
// is what the cross-process equivalence tests pin down.
type RemoteNode struct {
	base string // e.g. http://127.0.0.1:7001
	opts ClientOptions
}

// NewRemoteNode returns a client for the worker at base URL. It performs
// no I/O; Init boots the worker.
func NewRemoteNode(base string, opts ClientOptions) *RemoteNode {
	return &RemoteNode{base: base, opts: opts.withDefaults()}
}

// call performs one retried request-scoped round trip: POST body (or GET
// when body is nil) to path, decoding a 200 into out. Non-2xx responses
// surface the worker's error envelope; 4xx ones are permanent. The
// caller's context rides along for tracing: each attempt gets its own
// "cluster.rpc" span, and the span's traceparent (plus the context's
// request ID) is injected into the outbound headers so the worker-side
// trace segment links back to this coordinator span.
func (n *RemoteNode) call(callCtx context.Context, method, path string, body, out any) error {
	var encoded []byte
	if body != nil {
		var err error
		if encoded, err = json.Marshal(body); err != nil {
			return fmt.Errorf("cluster %s%s: encode: %w", n.base, path, err)
		}
	}
	attempt := 0
	return n.opts.Retry.Do(callCtx, func() (err error) {
		attempt++
		spanCtx, endSpan := obs.StartSpan(callCtx, "cluster.rpc")
		obs.SetSpanAttrs(spanCtx, "path", path, "attempt", strconv.Itoa(attempt))
		defer func() { endSpan(err) }()
		ctx, cancel := context.WithTimeout(spanCtx, n.opts.Timeout)
		defer cancel()
		var rdr io.Reader
		if encoded != nil {
			rdr = bytes.NewReader(encoded)
		}
		req, err := http.NewRequestWithContext(ctx, method, n.base+path, rdr)
		if err != nil {
			return Permanent(fmt.Errorf("cluster %s%s: %w", n.base, path, err))
		}
		if encoded != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if n.opts.Epoch != "" {
			req.Header.Set(EpochHeader, n.opts.Epoch)
		}
		if tp := obs.TraceparentFrom(spanCtx); tp != "" {
			req.Header.Set(obs.TraceparentHeader, tp)
		}
		if rid := obs.RequestIDFrom(spanCtx); rid != "" {
			req.Header.Set(obs.RequestIDHeader, rid)
		}
		resp, err := n.opts.HTTPClient.Do(req)
		if err != nil {
			return fmt.Errorf("cluster %s%s: %w", n.base, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var envelope errorResponse
			msg := resp.Status
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&envelope) == nil && envelope.Error != "" {
				msg = envelope.Error
			}
			err := fmt.Errorf("cluster %s%s: %s", n.base, path, msg)
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				// The worker answered: the request itself is unacceptable
				// (validation, sequence conflict, uninitialized). Retrying the
				// same bytes cannot help.
				return Permanent(err)
			}
			return err
		}
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("cluster %s%s: decode: %w", n.base, path, err)
		}
		return nil
	})
}

// Init pushes boot state to the worker over /init, replacing whatever
// state it held: a coordinator's boot, or failover onto a spare.
func (n *RemoteNode) Init(boot shard.NodeBoot, rules []*pfd.PFD, seq int64) error {
	var st StateResponse
	return n.call(context.Background(), http.MethodPost, APIPrefix+"/init", BootRequest{Boot: boot, Rules: rules, Seq: seq, Epoch: n.opts.Epoch}, &st)
}

// Apply sends one translated batch; redelivered batches come back from
// the worker's idempotency cache, so the retry wrapper is safe. The
// context carries the coordinator's fan-out span: the RPC span nests
// under it and its traceparent travels to the worker.
func (n *RemoteNode) Apply(ctx context.Context, nb shard.NodeBatch) ([]*stream.Diff, error) {
	var resp ApplyResponse
	if err := n.call(ctx, http.MethodPost, APIPrefix+"/apply", nb, &resp); err != nil {
		return nil, err
	}
	return resp.Diffs, nil
}

// Violations fetches the worker's maintained set, already globalized.
func (n *RemoteNode) Violations() ([]pfd.Violation, error) {
	var resp ViolationsResponse
	if err := n.call(context.Background(), http.MethodGet, APIPrefix+"/violations", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Violations, nil
}

// Stats fetches the worker's state summary, with its applied-batch and
// redelivery counts.
func (n *RemoteNode) Stats() (shard.NodeStats, error) {
	var st shard.NodeStats
	err := n.call(context.Background(), http.MethodGet, APIPrefix+"/stats", nil, &st)
	return st, err
}

// Close releases idle connections; the worker process itself is not ours
// to stop.
func (n *RemoteNode) Close() error {
	n.opts.HTTPClient.CloseIdleConnections()
	return nil
}
