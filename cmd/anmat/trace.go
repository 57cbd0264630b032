// Subcommand for trace inspection against a running anmat-server:
//
//	anmat trace -server http://host:8080 <trace-id>   render one trace tree
//	anmat trace -server http://host:8080 -slow        tail slow/errored traces
//	anmat trace -server http://host:8080 -list        list retained traces
//
// A trace ID comes out of every API response's X-Anmat-Trace-Id header
// (and the access log's trace_id field). The tree view renders the full
// span hierarchy — server route, journal, shard fan-out, worker RPCs,
// worker-side applies — with per-span timings and attributes, merging
// worker-side segments the server fetched from its cluster workers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/anmat/anmat/internal/obs"
)

func cmdTrace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	srv := fs.String("server", "http://localhost:8080", "anmat-server base URL")
	slow := fs.Bool("slow", false, "tail mode: poll for newly retained slow/errored traces until interrupted")
	list := fs.Bool("list", false, "list retained traces (most recent first) instead of rendering one")
	route := fs.String("route", "", "list/tail filter: only traces whose route contains this substring")
	minMS := fs.Int("min-ms", 0, "list/tail filter: only traces at least this slow")
	limit := fs.Int("limit", 20, "list mode: max traces to show")
	interval := fs.Duration("interval", 2*time.Second, "tail mode: poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*srv, "/")
	switch {
	case *slow:
		return traceTail(ctx, os.Stdout, base, *route, *minMS, *interval)
	case *list:
		return traceList(base, *route, *minMS, *limit)
	default:
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: anmat trace [-server URL] <trace-id> | -list | -slow")
		}
		return traceShow(base, fs.Arg(0))
	}
}

// fetchTraces GETs /api/v1/traces with the given filters; slow asks for
// the slow-or-errored queue only.
func fetchTraces(base, route string, minMS, limit int, slow bool) ([]obs.Trace, error) {
	q := url.Values{}
	if slow {
		q.Set("slow", "1")
	}
	if route != "" {
		q.Set("route", route)
	}
	if minMS > 0 {
		q.Set("min_ms", strconv.Itoa(minMS))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	resp, err := http.Get(base + "/api/v1/traces?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpFail("trace list", resp)
	}
	var body struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Traces, nil
}

func traceList(base, route string, minMS, limit int) error {
	traces, err := fetchTraces(base, route, minMS, limit, false)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		fmt.Println("no traces retained")
		return nil
	}
	for _, tr := range traces {
		fmt.Println(traceSummaryLine(tr))
	}
	return nil
}

// traceSummaryLine renders one list/tail row.
func traceSummaryLine(tr obs.Trace) string {
	flags := ""
	if tr.Errored {
		flags += " ERR"
	}
	if tr.Slow {
		flags += " SLOW"
	}
	return fmt.Sprintf("%s  %-28s %10s%s", tr.ID, tr.Name, time.Duration(tr.Duration), flags)
}

// traceTail polls the server's slow-or-errored queue and prints traces
// it has not shown yet — a follow mode for "what is slow right now".
// Runs until ctx is cancelled (Ctrl-C).
func traceTail(ctx context.Context, w io.Writer, base, route string, minMS int, interval time.Duration) error {
	seen := make(map[string]bool)
	fmt.Fprintf(os.Stderr, "tailing slow/errored traces from %s every %s (ctrl-c to stop)\n", base, interval)
	for first := true; ; first = false {
		traces, err := fetchTraces(base, route, minMS, 100, true)
		if err != nil {
			if first {
				return err // server unreachable at startup: fail loudly
			}
			fmt.Fprintf(os.Stderr, "trace tail: %v\n", err)
		}
		// Oldest unseen first, so the stream reads chronologically.
		for i := len(traces) - 1; i >= 0; i-- {
			tr := traces[i]
			if seen[tr.ID] {
				continue
			}
			seen[tr.ID] = true
			// On the first poll, mark history seen without printing it:
			// a tail shows what happens from now on.
			if !first {
				fmt.Fprintln(w, traceSummaryLine(tr))
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}

func traceShow(base, id string) error {
	resp, err := http.Get(base + "/api/v1/traces/" + url.PathEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpFail("trace", resp)
	}
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return err
	}
	flags := ""
	if tr.Errored {
		flags += " errored"
	}
	if tr.Slow {
		flags += " slow"
	}
	fmt.Printf("trace %s  %s  %s%s  (%d spans)\n", tr.ID, tr.Name, time.Duration(tr.Duration), flags, len(tr.Spans))
	printSpanTree(tr)
	return nil
}

// printSpanTree renders the spans as an indented tree: children under
// their parents, siblings in start order, with duration, offset from
// the trace start, and the span's attributes. Spans whose parent is
// missing (evicted or remote segment lost) root at the top level.
func printSpanTree(tr obs.Trace) {
	children := make(map[string][]obs.SpanRecord)
	byID := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = true
	}
	var roots []obs.SpanRecord
	for _, sp := range tr.Spans {
		if sp.Parent != "" && byID[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	order := func(s []obs.SpanRecord) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	order(roots)
	var t0 time.Time
	if len(roots) > 0 {
		t0 = roots[0].Start
	}
	var walk func(sp obs.SpanRecord, depth int)
	walk = func(sp obs.SpanRecord, depth int) {
		indent := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%-*s %10s  +%s", indent, 28-2*depth, sp.Name,
			time.Duration(sp.Duration), sp.Start.Sub(t0).Round(time.Microsecond))
		if attrs := renderAttrs(sp.Attrs); attrs != "" {
			line += "  " + attrs
		}
		if sp.Err != "" {
			line += "  err=" + sp.Err
		}
		fmt.Println(line)
		kids := children[sp.SpanID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// renderAttrs renders span attributes as stable k=v pairs, most useful
// first (shard and seq lead; the rest alphabetical).
func renderAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ri, rj := attrRank(keys[i]), attrRank(keys[j])
		if ri != rj {
			return ri < rj
		}
		return keys[i] < keys[j]
	})
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+attrs[k])
	}
	return strings.Join(parts, " ")
}

func attrRank(k string) int {
	switch k {
	case "shard":
		return 0
	case "seq":
		return 1
	case "route":
		return 2
	default:
		return 3
	}
}
