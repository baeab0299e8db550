// The request record and the flight recorder. DoCall fills one
// requestRecord per request; finish derives every observability surface
// from it — the per-op metrics, the trace root's error mark, the
// flight-ring slot and the slow-query line — so no surface keeps its
// own copy of the request's facts. The ring is a bounded buffer of the
// last N records, served at GET /debug/requests: the "what just
// happened" complement to the cumulative /metrics surface, correlated
// to client logs by X-Request-Id.
//
// Storage discipline: a record is a plain value (obs.CostSnapshot, not
// a map), so filling it and copying it into its slot allocates nothing
// beyond the strings the request already owns; the JSON shape is
// materialized only when /debug/requests is scraped or a slow line is
// written.
package server

import (
	"encoding/json"
	"sync"
	"time"

	"pw/internal/obs"
)

const defaultFlightSize = 128

// requestRecord is the one record of a request: identity (request id,
// op, db, version, fingerprint), outcome (status, error and its class,
// cache/coalesce/slow flags, duration), a cost snapshot and — for slow
// or failed requests with a plan — a one-line plan summary.
type requestRecord struct {
	id        string
	t         time.Time
	op        string
	db        string
	fp        string
	version   uint64
	dur       time.Duration
	status    int
	errMsg    string
	errClass  string
	cached    bool
	coalesced bool
	slow      bool
	cost      obs.CostSnapshot
	plan      string
}

// FlightRecord is the JSON shape of one request record: an element of
// the GET /debug/requests array (newest first) and, verbatim, one line
// of the slow-query log.
type FlightRecord struct {
	RequestID  string           `json:"request_id,omitempty"`
	Time       time.Time        `json:"time"`
	Op         string           `json:"op"`
	DB         string           `json:"db,omitempty"`
	Version    uint64           `json:"version,omitempty"`
	Fp         string           `json:"fp,omitempty"`
	DurUS      int64            `json:"us"`
	Status     int              `json:"status"`
	Error      string           `json:"error,omitempty"`
	ErrorClass string           `json:"error_class,omitempty"`
	Cached     bool             `json:"cached,omitempty"`
	Coalesced  bool             `json:"coalesced,omitempty"`
	Slow       bool             `json:"slow,omitempty"`
	Cost       map[string]int64 `json:"cost,omitempty"`
	Plan       string           `json:"plan,omitempty"`
}

func (r *requestRecord) flightRecord() FlightRecord {
	return FlightRecord{
		RequestID:  r.id,
		Time:       r.t,
		Op:         r.op,
		DB:         r.db,
		Version:    r.version,
		Fp:         r.fp,
		DurUS:      r.dur.Microseconds(),
		Status:     r.status,
		Error:      r.errMsg,
		ErrorClass: r.errClass,
		Cached:     r.cached,
		Coalesced:  r.coalesced,
		Slow:       r.slow,
		Cost:       r.cost.Counters(),
		Plan:       r.plan,
	}
}

// finish derives every observability surface from one request record:
// the per-op request, error and latency metrics, the trace root's error
// mark, the flight-ring slot and, past the threshold, the slow-query
// line. The slow line is written under slowMu as one Write, so
// concurrent requests neither race on the configured writer nor
// interleave their lines.
func (s *Server) finish(r *requestRecord, tr *obs.Trace) {
	op := s.metrics.op(r.op)
	s.metrics.requests[op].Inc()
	s.metrics.latency[op].Observe(r.dur.Seconds())
	if r.errClass != "" {
		s.metrics.errors[op].Inc()
		tr.Root().SetError(r.errClass)
	}
	if s.recorder != nil {
		s.recorder.record(r)
		s.metrics.flightRecords.Inc()
	}
	if !r.slow {
		return
	}
	s.metrics.slow.Inc()
	line, err := json.Marshal(r.flightRecord())
	if err != nil {
		return
	}
	s.slowMu.Lock()
	s.slowLog.Write(append(line, '\n'))
	s.slowMu.Unlock()
}

// flightRecorder is the mutex-guarded ring. A nil recorder (FlightSize
// < 0) is disabled: finish skips it, and len and snapshot read it as
// empty.
type flightRecorder struct {
	mu   sync.Mutex
	ring []requestRecord
	next int // slot the next record lands in
	n    int // live entries (≤ len(ring))
}

func newFlightRecorder(size int) *flightRecorder {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = defaultFlightSize
	}
	return &flightRecorder{ring: make([]requestRecord, size)}
}

func (f *flightRecorder) record(r *requestRecord) {
	f.mu.Lock()
	f.ring[f.next] = *r
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
}

func (f *flightRecorder) len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// snapshot materializes the live entries newest-first.
func (f *flightRecorder) snapshot() []FlightRecord {
	out := []FlightRecord{} // never nil: /debug/requests serves [], not null
	if f == nil {
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < f.n; i++ {
		out = append(out, f.ring[(f.next-1-i+len(f.ring))%len(f.ring)].flightRecord())
	}
	return out
}

// FlightRecords snapshots the flight recorder, newest first — the GET
// /debug/requests body. Empty (never nil) when recording is disabled.
func (s *Server) FlightRecords() []FlightRecord {
	return s.recorder.snapshot()
}
