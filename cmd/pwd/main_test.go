package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// startPWD runs the server on an ephemeral port and returns its base
// URL plus a stop function that triggers graceful shutdown and waits
// for run to return (asserting exit 0).
func startPWD(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	var stdout lockedBuffer
	var stderr bytes.Buffer
	shutdown := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &stdout, &stderr, shutdown)
	}()

	// The listen line is printed after the socket is bound.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("pwd never announced its address; stderr: %s", stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			addr = strings.TrimSpace(out[i+len("listening on "):])
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	stop := func() {
		close(shutdown)
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("pwd exited %d; stderr: %s", code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("pwd did not shut down")
		}
	}
	return "http://" + addr, stop
}

// lockedBuffer makes the stdout capture race-safe: run writes from its
// goroutine while the test polls.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestPWDServesQueriesOverHTTP(t *testing.T) {
	base, stop := startPWD(t,
		"-db", "sensors=../../examples/data/sensors.pw",
		"-db", "personnel=../../examples/data/personnel.pw",
		"-workers", "2")
	defer stop()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	body := `{"db":"sensors","op":"poss","facts":"@relation Reading(2)\n  fact: s00 hi\n"}`
	r, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("/query = %d", r.StatusCode)
	}
	var out struct {
		Answer *bool `json:"answer"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Answer == nil || !*out.Answer {
		t.Fatalf("poss answer = %v, want yes", out.Answer)
	}

	// /stats carries the server counters.
	st, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		Requests int64 `json:"requests"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests < 1 {
		t.Fatalf("/stats requests = %d, want ≥ 1", stats.Requests)
	}
}

// TestHTTPServerTimeouts pins the listener's header and idle timeouts
// and the absence of a write timeout, which would cut long answers.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := httpServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}
}

// TestPWDUpdateEndToEnd drives the full write path over a real socket:
// POST an @update program, then read the installed version back through
// the query API. The patch halves the sensor network three times
// (decommission s01, pin s05, assume s00), so the count must drop from
// 2^20 to 2^17.
func TestPWDUpdateEndToEnd(t *testing.T) {
	base, stop := startPWD(t, "-db", "sensors=../../examples/data/sensors.pw")
	defer stop()

	prog, err := os.ReadFile("../../examples/data/sensors_patch.pw")
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(base+"/update?db=sensors", "text/plain", bytes.NewReader(prog))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != 200 {
		b := new(bytes.Buffer)
		b.ReadFrom(r.Body)
		t.Fatalf("/update = %d: %s", r.StatusCode, b.String())
	}
	var wrote struct {
		Version uint64 `json:"version"`
		Count   string `json:"count"`
	}
	if err := json.NewDecoder(r.Body).Decode(&wrote); err != nil {
		t.Fatal(err)
	}
	if wrote.Version != 2 {
		t.Fatalf("write installed version %d, want 2", wrote.Version)
	}
	if wrote.Count != "131072" {
		t.Fatalf("post-update count = %s, want 131072 (2^17)", wrote.Count)
	}

	q, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"db":"sensors","op":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Body.Close()
	var out struct {
		Version uint64 `json:"version"`
		Count   string `json:"count"`
	}
	if err := json.NewDecoder(q.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 || out.Count != "131072" {
		t.Fatalf("count after write = %s at version %d, want 131072 at 2", out.Count, out.Version)
	}
}

func TestPWDBadInvocations(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb, nil); code != 2 {
		t.Fatalf("no -db: exit %d, want 2", code)
	}
	if code := run([]string{"-db", "malformed"}, &out, &errb, nil); code != 2 {
		t.Fatalf("malformed -db: exit %d, want 2", code)
	}
	if code := run([]string{"-db", "x=/does/not/exist.pw"}, &out, &errb, nil); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
	if code := run([]string{"-db", "q=../../examples/data/sensors_hi.pw"}, &out, &errb, nil); code != 2 {
		t.Fatalf("@query file as database: exit %d, want 2", code)
	}
}
