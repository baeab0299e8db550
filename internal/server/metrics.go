// Server-side observability: the Prometheus-style metric families
// behind GET /metrics (also the only store of the counters /stats
// reports), the per-request context (trace + cost sink + query
// fingerprint) threaded through dispatch, and request-ID generation.
//
// Hot-path discipline: every per-op counter and histogram handle is
// resolved once at construction into plain maps that are read-only
// afterwards, so recording a request is a handful of atomic adds with
// no lock and no label formatting. Per-database families are computed
// at scrape time instead of being maintained per request.
package server

import (
	"fmt"
	"io"

	"pw/internal/obs"
	"pw/internal/wsdalg"
)

// metricOps are the request ops with dedicated metric series; anything
// else (including malformed ops) lands on "other" so label cardinality
// stays bounded no matter what clients send.
var metricOps = []string{
	"memb", "uniq", "poss", "cert", "count", "sample",
	"poss-ans", "cert-ans", "cont", "write", "other",
}

// serverMetrics is the server's metric surface: one registry for the
// static families plus pre-resolved per-op handles.
type serverMetrics struct {
	reg *obs.Registry

	requests map[string]*obs.Counter   // by op
	errors   map[string]*obs.Counter   // by op
	latency  map[string]*obs.Histogram // by op

	httpRequests *obs.CounterVec // path, code — recorded by the HTTP layer

	ansHits    *obs.Counter
	ansMisses  *obs.Counter
	ansPurged  *obs.Counter
	prepHits   *obs.Counter
	prepMisses *obs.Counter
	coalesced  *obs.Counter
	planReused *obs.Counter
	semWait    *obs.Histogram
	inflight   *obs.Gauge
	slow       *obs.Counter

	explain       *obs.Counter
	flightRecords *obs.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: make(map[string]*obs.Counter, len(metricOps)),
		errors:   make(map[string]*obs.Counter, len(metricOps)),
		latency:  make(map[string]*obs.Histogram, len(metricOps)),
	}
	reqs := reg.CounterVec("pwd_requests_total", "Requests handled, by op.", "op")
	errs := reg.CounterVec("pwd_request_errors_total", "Requests that returned an error, by op.", "op")
	lat := reg.HistogramVec("pwd_request_seconds", "Request handling latency in seconds, by op.", nil, "op")
	for _, op := range metricOps {
		m.requests[op] = reqs.With(op)
		m.errors[op] = errs.With(op)
		m.latency[op] = lat.With(op)
	}
	m.httpRequests = reg.CounterVec("pwd_http_requests_total", "HTTP requests served, by path and status code.", "path", "code")
	m.ansHits = reg.Counter("pwd_answer_cache_hits_total", "Answer-cache hits.")
	m.ansMisses = reg.Counter("pwd_answer_cache_misses_total", "Answer-cache misses.")
	m.ansPurged = reg.Counter("pwd_answer_cache_purged_total", "Answer-cache entries purged on version bumps.")
	m.prepHits = reg.Counter("pwd_prepared_hits_total", "Prepared-query cache hits.")
	m.prepMisses = reg.Counter("pwd_prepared_misses_total", "Prepared-query cache misses.")
	m.coalesced = reg.Counter("pwd_coalesced_total", "Requests that piggybacked on an identical in-flight evaluation.")
	m.planReused = reg.Counter("pwd_plan_reused_total", "Answer misses that evaluated a kept planning decision instead of planning.")
	m.semWait = reg.Histogram("pwd_sem_wait_seconds", "Time heavy evaluations spent queued on the admission semaphore.", nil)
	m.inflight = reg.Gauge("pwd_inflight_evals", "Heavy evaluations currently holding an admission slot.")
	m.slow = reg.Counter("pwd_slow_queries_total", "Requests that exceeded the slow-query threshold.")
	m.explain = reg.Counter("pwd_explain_total", "Requests that asked for a query plan (?explain=1).")
	m.flightRecords = reg.Counter("pwd_flight_records_total", "Requests recorded into the flight recorder.")
	reg.GaugeFunc("pwd_flight_entries", "Live entries in the flight recorder ring.", func() float64 {
		return float64(s.recorder.len())
	})
	reg.GaugeFunc("pwd_answer_cache_entries", "Live answer-cache entries.", func() float64 {
		s.cacheMu.Lock()
		n := s.answers.len()
		s.cacheMu.Unlock()
		return float64(n)
	})
	reg.GaugeFunc("pwd_prepared_entries", "Live prepared-query cache entries.", func() float64 {
		s.cacheMu.Lock()
		n := s.prepared.len()
		s.cacheMu.Unlock()
		return float64(n)
	})
	return m
}

// op resolves a request op to its metric label ("other" off the known
// set, bounding cardinality).
func (m *serverMetrics) op(op string) string {
	if _, ok := m.requests[op]; ok {
		return op
	}
	return "other"
}

// WriteMetrics writes the full metric surface in the Prometheus text
// exposition format: the static families, then the per-database
// families computed from the live database set (version, resident
// backend kind, per-db answer-cache traffic).
func (s *Server) WriteMetrics(w io.Writer) {
	s.metrics.reg.WritePrometheus(w)
	dbs := s.DBStats()
	version := make([]obs.Series, 0, len(dbs))
	backend := make([]obs.Series, 0, len(dbs))
	hits := make([]obs.Series, 0, len(dbs))
	misses := make([]obs.Series, 0, len(dbs))
	entries := make([]obs.Series, 0, len(dbs))
	for _, d := range dbs {
		name := obs.Label{Key: "db", Value: d.Name}
		version = append(version, obs.Series{Labels: []obs.Label{name}, Value: float64(d.Version)})
		backend = append(backend, obs.Series{Labels: []obs.Label{
			name, {Key: "backend", Value: d.Backend}, {Key: "kind", Value: d.Kind},
		}, Value: 1})
		hits = append(hits, obs.Series{Labels: []obs.Label{name}, Value: float64(d.AnswerHits)})
		misses = append(misses, obs.Series{Labels: []obs.Label{name}, Value: float64(d.AnswerMisses)})
		entries = append(entries, obs.Series{Labels: []obs.Label{name}, Value: float64(d.AnswerEntries)})
	}
	obs.WriteFamily(w, "pwd_db_version", "gauge", "Installed version of each loaded database.", version...)
	obs.WriteFamily(w, "pwd_db_backend_info", "gauge", "Resident backend of each loaded database (1 per db; backend and kind as labels).", backend...)
	obs.WriteFamily(w, "pwd_db_answer_cache_hits_total", "counter", "Answer-cache hits attributed to each database.", hits...)
	obs.WriteFamily(w, "pwd_db_answer_cache_misses_total", "counter", "Answer-cache misses attributed to each database.", misses...)
	obs.WriteFamily(w, "pwd_db_answer_cache_entries", "gauge", "Live answer-cache entries keyed on each database.", entries...)
}

// reqCtx is the per-request observability context threaded through
// dispatch: the trace (nil when untraced), the cost sink (always
// non-nil — the request record needs counters even for untraced
// requests), the canonical query fingerprint once resolved, whether the
// caller asked for an EXPLAIN plan, and the plan the dispatched op
// produced.
type reqCtx struct {
	tr      *obs.Trace
	cost    *obs.Cost
	fp      string
	explain bool
	plan    *wsdalg.Plan
}

func newReqCtx(tr *obs.Trace) *reqCtx {
	rc := &reqCtx{tr: tr, cost: tr.Cost()}
	if rc.cost == nil {
		rc.cost = obs.NewCost()
	}
	return rc
}

// span opens a child of the trace root (nil when untraced — all Span
// methods degrade).
func (rc *reqCtx) span(name string) *obs.Span { return rc.tr.Root().StartChild(name) }

// RequestID mints a process-unique request ID: a per-server random base
// plus a sequence number. The HTTP layer stamps it on every response
// (X-Request-Id) and traced responses embed it.
func (s *Server) RequestID() string {
	return fmt.Sprintf("%s-%d", s.idBase, s.idSeq.Add(1))
}
