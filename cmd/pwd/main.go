// Command pwd is the possible-worlds query server: it loads .pw
// databases once, keeps their decompositions resident and normalized,
// and answers the pwq command set over HTTP/JSON to many concurrent
// clients — prepared queries, an answer cache keyed by (database
// version, query fingerprint), and singleflight batching make repeat
// and concurrent traffic cost far less than one pwq process each.
//
// Usage:
//
//	pwd -db name=file.pw [-db name2=file2.pw ...] [-addr :7780]
//	    [-workers 0] [-cache 256] [-slowquery 0] [-flightsize 128]
//
// API (see internal/server):
//
//	POST /query          {"db":"name","op":"memb|uniq|poss|cert|count|
//	                     sample|poss-ans|cert-ans|cont|write", ...};
//	                     append ?trace=1 to embed a span tree, engine
//	                     cost counters and the request ID in the answer,
//	                     and/or ?explain=1 to embed the evaluation plan
//	                     (estimates vs actuals; a summary probe plan on
//	                     decomposition-native ops)
//	GET  /dbs            loaded databases and versions
//	GET  /stats          cache and concurrency counters, per-db versions
//	GET  /metrics        Prometheus text exposition of every counter,
//	                     gauge and histogram (per-op latency, cache
//	                     traffic, per-db versions and backend kinds)
//	GET  /debug/requests flight recorder: the last -flightsize request
//	                     records (newest first): ids, durations, statuses,
//	                     error classes, cost counters, plan summaries
//	POST /reload?db=X    re-read a database file
//	POST /update?db=X    apply an @update program (request body) to a
//	                     decomposition-backed database; installs a new
//	                     version while readers keep the old snapshot
//	GET  /healthz        liveness
//	GET  /debug/pprof/   profiles; GET /debug/vars: the stdlib's expvar only
//
// -slowquery DUR logs every request slower than DUR to stderr as one
// JSON line, its flight record: request id, op, database, canonical
// query fingerprint, error class, plan summary and cost counters.
//
// pwd prints "pwd: listening on ADDR" once the socket is bound (ADDR is
// the resolved address, so -addr :0 is usable by harnesses) and shuts
// down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pw/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the server and blocks until a signal arrives or shutdown
// closes. Tests drive it with -addr 127.0.0.1:0 plus a shutdown channel
// and read the bound address off stdout.
func run(args []string, stdout, stderr io.Writer, shutdown <-chan struct{}) int {
	fs := flag.NewFlagSet("pwd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7780", "listen address (host:port; :0 picks a free port)")
	workersN := fs.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 0, "answer cache entries (0 = default 256, negative disables)")
	slowQuery := fs.Duration("slowquery", 0, "log queries slower than this to stderr (0 disables)")
	flightSize := fs.Int("flightsize", 0, "flight-recorder ring size for /debug/requests (0 = default 128, negative disables)")
	var dbs []string
	fs.Func("db", "database to load, as name=file.pw (repeatable)", func(v string) error {
		dbs = append(dbs, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(dbs) == 0 {
		fmt.Fprintln(stderr, "pwd: no databases; pass at least one -db name=file.pw")
		return 2
	}

	s := server.New(server.Config{
		Workers:            *workersN,
		CacheSize:          *cacheSize,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       stderr,
		FlightSize:         *flightSize,
	})
	for _, spec := range dbs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(stderr, "pwd: -db %q is not name=file.pw\n", spec)
			return 2
		}
		if err := s.Open(name, path); err != nil {
			fmt.Fprintln(stderr, "pwd:", err)
			return 2
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "pwd:", err)
		return 2
	}
	srv := httpServer(s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "pwd: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "pwd:", err)
		return 1
	case <-sig:
	case <-shutdown:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "pwd: shutdown:", err)
		return 1
	}
	return 0
}

// httpServer bounds slow request headers and idle keep-alive
// connections with constant timeouts. It sets no write timeout:
// evaluation is not yet bounded, so one would cut a long answer mid-body.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}
