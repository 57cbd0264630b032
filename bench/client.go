// The load generator's HTTP side: one client per writer goroutine, each
// limited to a single connection, so a run with C clients holds at most
// C connections to the server.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
)

type client struct {
	hc     *http.Client
	tg     target
	tenant string
}

func newClient(tg target, tenant string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tg: tg, tenant: tenant}
}

// reset drops the kept-alive connection (the server behind it was
// killed).
func (c *client) reset() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; the returned
// duration runs from before the request is written until the body has
// been read in full. A non-200 status is an error.
func (c *client) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.tg.URL()+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if c.tenant != "" {
		req.Header.Set(obs.TenantHeader, c.tenant)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, d, nil
}

// upload creates a session from a CSV and returns its ID and reported
// violation count.
func (c *client) upload(name string, csv []byte) (id string, violations int, d time.Duration, err error) {
	out, d, err := c.do(http.MethodPost, "/api/v1/sessions?name="+name, csv)
	if err != nil {
		return "", 0, d, err
	}
	var r struct {
		Session    string `json:"session"`
		Violations int    `json:"violations"`
	}
	if err := json.Unmarshal(out, &r); err != nil || r.Session == "" {
		return "", 0, d, fmt.Errorf("upload %s: unreadable response %q (%v)", name, out, err)
	}
	return r.Session, r.Violations, d, nil
}

// rules fetches the session's mined rule set.
func (c *client) rules(id string) ([]*pfd.PFD, error) {
	out, _, err := c.do(http.MethodGet, "/api/v1/sessions/"+id+"/pfds", nil)
	if err != nil {
		return nil, err
	}
	var r struct {
		PFDs []*pfd.PFD `json:"pfds"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("session %s: decode pfds: %w", id, err)
	}
	return r.PFDs, nil
}

// scrape sums every process's /metrics into one sample list.
func scrape(tg target) ([]obs.Sample, error) {
	var all []obs.Sample
	for _, u := range tg.MetricsURLs() {
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		samples, _, err := obs.ParseText(string(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u, err)
		}
		all = append(all, samples...)
	}
	return all, nil
}

// delta is how much a counter (summed over its series and over every
// process) grew between two /metrics readings.
func delta(after, before []obs.Sample, name string) float64 {
	return obs.SumSamples(after, name, nil) - obs.SumSamples(before, name, nil)
}
