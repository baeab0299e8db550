package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pw/internal/server"
)

// wireResponse is the part of a POST /query reply the checks read.
type wireResponse struct {
	Version uint64 `json:"version"`
	Answer  *bool  `json:"answer"`
	Count   string `json:"count"`
	Facts   string `json:"facts"`
	Error   string `json:"error"`
}

// render is the answer as the generators spell expectations: a
// decision as true/false, answer facts as .pw text, else the count.
func render(r *wireResponse) string {
	switch {
	case r.Answer != nil:
		return strconv.FormatBool(*r.Answer)
	case r.Facts != "":
		return r.Facts
	default:
		return r.Count
	}
}

// checker compares answers with expectations. Only the writer client of
// write-mix issues writes, so the version a write must install is known.
type checker struct {
	writes   atomic.Uint64
	reported atomic.Int64
}

// check reports whether the reply to r is right. A non-200 status is a
// failure: the workloads are built so that every request is answerable.
func (c *checker) check(r *request, status int, resp *wireResponse) bool {
	ok := status == http.StatusOK
	if ok && r.write {
		ok = resp.Version == 1+c.writes.Add(1) && render(resp) == r.want[0]
	} else if ok {
		st := 0
		if len(r.want) > 1 {
			st = int((resp.Version - 1) % uint64(len(r.want)))
		}
		ok = render(resp) == r.want[st]
	}
	if !ok && c.reported.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s %s on %s: status %d, got %q (error %q), want %q\n",
			r.kind, r.req.Op, r.req.DB, status, truncate(render(resp)), resp.Error, truncate(r.want[0]))
	}
	return ok
}

func truncate(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

// checkDo checks a reply of Server.Do the same way.
func (c *checker) checkDo(r *request, resp *server.Response, err error) bool {
	if err != nil {
		return c.check(r, 500, &wireResponse{Error: err.Error()})
	}
	return c.check(r, http.StatusOK, &wireResponse{Version: resp.Version, Answer: resp.Answer, Count: resp.Count, Facts: resp.Facts})
}

// httpServer is the server's handler on a loopback listener, the way
// cmd/pwd mounts it.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan error

	closeOnce sync.Once
	closeErr  error
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { hs.done <- hs.srv.Serve(ln) }()
	return hs, nil
}

// close shuts the server down and waits for Serve to return. Closing
// again returns the first close's result.
func (hs *httpServer) close() error {
	hs.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.closeErr = hs.srv.Shutdown(ctx)
		if err := <-hs.done; err != http.ErrServerClosed && hs.closeErr == nil {
			hs.closeErr = err
		}
	})
	return hs.closeErr
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// post sends one request body to path and returns the status and the
// raw reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// roundTrip posts r to /query, decodes and checks the reply.
func roundTrip(c *http.Client, url string, r *request, chk *checker) bool {
	var resp wireResponse
	status, raw, err := post(c, url+"/query", r.body)
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	if err != nil {
		resp.Error = err.Error()
		status = 0
	}
	return chk.check(r, status, &resp)
}

// loadResult is one closed-loop measurement.
type loadResult struct {
	completed, failed int
	lat               []time.Duration
	elapsed           time.Duration
}

// cursor is a position in a workload's streams. It carries over from
// one measured slice to the next, so the request order of a run is the
// stream order however the run is sliced (query-miss's reuse distance
// and write-mix's write cycle depend on it).
type cursor struct {
	shared atomic.Int64
	own    []int // per client, for per-client streams
}

// runLoad drives url closed-loop from conns clients until d has passed
// (d = 0: until the shared stream's first pass is done). Each client
// sends its next request only after the previous reply arrived.
func runLoad(c *http.Client, url string, w *workload, conns int, d time.Duration, cur *cursor, chk *checker) loadResult {
	if cur.own == nil {
		cur.own = make([]int, conns)
	}
	per := make([]loadResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &per[ci]
			res.lat = make([]time.Duration, 0, 1<<14)
			stream := w.streams[0]
			if !w.shared {
				stream = w.streams[min(ci, len(w.streams)-1)]
			}
			for {
				var idx int
				if w.shared {
					idx = int(cur.shared.Add(1) - 1)
				} else {
					idx = cur.own[ci]
					cur.own[ci]++
				}
				if d == 0 && idx >= len(stream) || d > 0 && !time.Now().Before(deadline) {
					if w.shared {
						cur.shared.Add(-1) // not sent: the next slice sends it
					} else {
						cur.own[ci]--
					}
					return
				}
				r := stream[idx%len(stream)]
				t0 := time.Now()
				ok := roundTrip(c, url, r, chk)
				res.lat = append(res.lat, time.Since(t0))
				res.completed++
				if !ok {
					res.failed++
				}
			}
		}(ci)
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start)}
	for _, r := range per {
		out.completed += r.completed
		out.failed += r.failed
		out.lat = append(out.lat, r.lat...)
	}
	return out
}
