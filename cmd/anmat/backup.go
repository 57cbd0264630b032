// Subcommands for session portability against a running anmat-server:
//
//	anmat backup  -server http://host:8080 -session s1 [-out s1.anmat.tar]
//	anmat restore -server http://host:8080 -in s1.anmat.tar [-tenant t]
//
// backup streams GET /api/v1/sessions/{id}/backup to a file (or stdout
// with -out -); restore uploads the tar to POST /api/v1/sessions/restore
// — typically on a different node — where the session comes back with
// the same ID, violations, and `violations?since=` sequence timeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"github.com/anmat/anmat/internal/obs"
)

// httpFail turns a non-2xx API response into an error carrying the
// server's (JSON) error body.
func httpFail(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("%s: server answered %s: %s", op, resp.Status, strings.TrimSpace(string(body)))
}

func cmdBackup(args []string) error {
	fs := flag.NewFlagSet("backup", flag.ContinueOnError)
	srv := fs.String("server", "http://localhost:8080", "anmat-server base URL")
	session := fs.String("session", "", "session ID to back up (required)")
	out := fs.String("out", "", "output tar path (default <session>.anmat.tar, '-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *session == "" {
		return fmt.Errorf("-session is required")
	}
	resp, err := http.Get(strings.TrimRight(*srv, "/") + "/api/v1/sessions/" + *session + "/backup")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpFail("backup", resp)
	}
	dst := os.Stdout
	path := *out
	if path == "" {
		path = *session + ".anmat.tar"
	}
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	n, err := io.Copy(dst, resp.Body)
	if err != nil {
		return fmt.Errorf("backup: %w", err)
	}
	if path != "-" {
		fmt.Printf("backed up session %s to %s (%d bytes)\n", *session, path, n)
	}
	return nil
}

func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ContinueOnError)
	srv := fs.String("server", "http://localhost:8080", "anmat-server base URL")
	in := fs.String("in", "", "backup tar to upload (required, '-' for stdin)")
	tenant := fs.String("tenant", "", "tenant to restore as (sets "+obs.TenantHeader+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(*srv, "/")+"/api/v1/sessions/restore", src)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-tar")
	if *tenant != "" {
		req.Header.Set(obs.TenantHeader, *tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpFail("restore", resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("restored: %s\n", strings.TrimSpace(string(body)))
	return nil
}
