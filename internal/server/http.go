package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"strconv"

	"pw/internal/obs"
	"pw/internal/wsdalg"
)

// Handler returns the server's HTTP API:
//
//	POST /query         one Request (JSON body) → one Response;
//	                    ?trace=1 embeds the span tree, cost counters
//	                    and request ID in the Response (success or
//	                    error); ?explain=1 embeds the EXPLAIN/ANALYZE
//	                    plan
//	POST /update?db=X   apply an @update program (request body) to a
//	                    decomposition database, bumping its version
//	                    (?trace=1 as above)
//	GET  /dbs           loaded databases (name, backend, kind, version, count)
//	GET  /stats         cache hit/miss, coalescing, in-flight and per-db
//	                    counters, read off the registry behind /metrics
//	GET  /metrics       Prometheus text exposition of every counter,
//	                    gauge and histogram, including per-db families
//	POST /reload?db=X   re-read a file-backed database, bumping its version
//	GET  /healthz       liveness ("ok")
//	GET  /debug/requests flight recorder: the last N request records
//	                    (id, op, db, duration, status, error class, cost),
//	                    newest first; a slow-query line is the same record
//	GET  /debug/pprof/  CPU/heap/goroutine profiles (net/http/pprof)
//	GET  /debug/vars    expvar: the standard library's variables only;
//	                    the server's counters are at /stats and /metrics
//
// Every response carries an X-Request-Id header, and every request is
// counted into pwd_http_requests_total{path,code} (unknown paths are
// labeled "other" to bound cardinality).
//
// The profiling handlers are registered on this mux explicitly rather
// than through http.DefaultServeMux, so importing the package never
// leaks debug routes onto an unrelated server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /dbs", s.handleDBs)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return s.instrument(mux)
}

// metricPaths are the routes with dedicated pwd_http_requests_total
// series; anything else counts under "other".
var metricPaths = map[string]bool{
	"/query": true, "/update": true, "/dbs": true, "/stats": true,
	"/metrics": true, "/reload": true, "/healthz": true,
	"/debug/requests": true,
}

// statusWriter captures the response status code for the HTTP counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux: mint a request ID (X-Request-Id on every
// response), then count the request by path and final status code.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.RequestID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: 200}
		next.ServeHTTP(sw, r.WithContext(withRequestID(r.Context(), id)))
		path := r.URL.Path
		if !metricPaths[path] {
			path = "other"
		}
		s.metrics.httpRequests.With(path, strconv.Itoa(sw.code)).Inc()
	})
}

type requestIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// errorBody is the JSON shape of every non-2xx API response. A traced
// request's failure still carries its request ID, the complete
// error-annotated span tree and the cost counters spent before the
// failure — the error path is exactly when that context matters.
type errorBody struct {
	Error     string           `json:"error"`
	RequestID string           `json:"request_id,omitempty"`
	Trace     *obs.SpanNode    `json:"trace,omitempty"`
	Cost      map[string]int64 `json:"cost,omitempty"`
	// Plan is the partial EXPLAIN plan of a failed ?explain=1 request:
	// the operator tree up to and including the failing node, marked
	// with its error class — the same record pwq explain prints on a
	// refusal.
	Plan *wsdalg.Plan `json:"plan,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// The status line is already on the wire; all that is left is
		// to say why the body is truncated (client gone, marshal bug).
		log.Printf("server: writeJSON: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeErrorTraced is writeError plus the context the request earned:
// request ID, finished span tree and cost counters for ?trace=1, the
// partial plan for ?explain=1.
func writeErrorTraced(w http.ResponseWriter, status int, err error, tr *obs.Trace) {
	body := errorBody{Error: err.Error()}
	if tr != nil {
		body.RequestID = tr.ID()
		body.Trace = tr.Tree()
		body.Cost = tr.Cost().Counters()
	}
	var pe *PlanError
	if errors.As(err, &pe) {
		body.Plan = pe.Plan
	}
	writeJSON(w, status, body)
}

// boolParam reports whether a query parameter opted in ("1", "true",
// "yes").
func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// traced reports whether the request opted into per-request tracing.
func traced(r *http.Request) bool { return boolParam(r, "trace") }

// explained reports whether the request asked for an EXPLAIN plan.
func explained(r *http.Request) bool { return boolParam(r, "explain") }

// doHTTP runs one Request through the engine, honoring ?trace=1 and
// ?explain=1: a traced request gets a span tree rooted at its op, pprof
// labels (op, db — inherited by the worker goroutines the evaluation
// spawns), and the trace embedded in the Response; on failure the
// finished trace comes back alongside the error so the handler can
// embed it in the error body.
func (s *Server) doHTTP(r *http.Request, req *Request) (*Response, *obs.Trace, error) {
	opts := CallOptions{Explain: explained(r), RequestID: requestIDFrom(r.Context())}
	if !traced(r) {
		resp, err := s.DoCall(req, opts)
		return resp, nil, err
	}
	tr := obs.NewTrace(req.Op, opts.RequestID)
	opts.Trace = tr
	var resp *Response
	var err error
	labels := rpprof.Labels("pwd_op", req.Op, "pwd_db", req.DB, "pwd_request", opts.RequestID)
	rpprof.Do(r.Context(), labels, func(context.Context) {
		resp, err = s.DoCall(req, opts)
	})
	tr.Finish()
	if err != nil {
		return nil, tr, err
	}
	resp.RequestID = opts.RequestID
	resp.Trace = tr.Tree()
	resp.Cost = tr.Cost().Counters()
	return resp, tr, nil
}

// maxBody caps the request body of /query and /update. A larger body is
// refused whole with 413: a write is never applied from a truncated
// program.
const maxBody = 1 << 20

// writeBodyError reports a request body that could not be read: 413
// when it exceeded maxBody, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBody))
		return
	}
	writeError(w, 400, badRequest("body: %v", err))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyError(w, err)
		return
	}
	resp, tr, err := s.doHTTP(r, &req)
	if err != nil {
		writeErrorTraced(w, statusFor(err), err, tr)
		return
	}
	writeJSON(w, 200, resp)
}

// handleUpdate is the raw-text write endpoint: the body is the @update
// program itself (no JSON envelope), mirroring how pwq pipes .pw files.
// The JSON-envelope path (POST /query with op "write") accepts the same
// programs via the Update field.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("db")
	if name == "" {
		writeError(w, 400, badRequest("missing db parameter"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	resp, tr, err := s.doHTTP(r, &Request{DB: name, Op: "write", Update: string(body)})
	if err != nil {
		writeErrorTraced(w, statusFor(err), err, tr)
		return
	}
	writeJSON(w, 200, resp)
}

func (s *Server) handleDBs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, 200, s.Databases())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, 200, s.Stats())
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, 200, s.FlightRecords())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("db")
	if name == "" {
		writeError(w, 400, badRequest("missing db parameter"))
		return
	}
	if err := s.Reload(name); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, 200, s.Databases())
}
