package server_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pw/internal/server"
)

// postQuery POSTs one /query body through the full HTTP handler and
// decodes the Response.
func postQuery(t *testing.T, s *server.Server, target string, req *server.Request) (*server.Response, *httptest.ResponseRecorder) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != 200 {
		t.Fatalf("POST %s: HTTP %d: %s", target, rec.Code, rec.Body.String())
	}
	var resp server.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &resp, rec
}

// spanNames flattens a span tree into the set of span names.
func spanNames(n any, into map[string]bool) {
	node, ok := n.(map[string]any)
	if !ok {
		return
	}
	if name, ok := node["name"].(string); ok {
		into[name] = true
	}
	if kids, ok := node["children"].([]any); ok {
		for _, k := range kids {
			spanNames(k, into)
		}
	}
}

// The acceptance path: a ?trace=1 cert-ans request on the resident
// sensors decomposition returns a span tree rooted at the op whose leaf
// counters expose the cache outcome and the engine work done.
func TestTracedCertAnsOnSensors(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	hi := mustRead(t, hiQueryPath)

	resp, rec := postQuery(t, s, "/query?trace=1", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})

	if resp.RequestID == "" {
		t.Fatal("traced response missing request_id")
	}
	if got := rec.Header().Get("X-Request-Id"); got != resp.RequestID {
		t.Errorf("X-Request-Id = %q, response request_id = %q", got, resp.RequestID)
	}
	if resp.Trace == nil {
		t.Fatal("traced response missing span tree")
	}
	if resp.Trace.Name != "cert-ans" {
		t.Errorf("trace root = %q, want cert-ans", resp.Trace.Name)
	}
	// Re-walk through JSON so the test pins the wire shape, not just the
	// Go struct.
	raw, _ := json.Marshal(resp.Trace)
	var tree any
	json.Unmarshal(raw, &tree)
	names := map[string]bool{}
	spanNames(tree, names)
	for _, want := range []string{"prepare", "eval", "answers"} {
		if !names[want] {
			t.Errorf("span tree missing %q span; have %v", want, names)
		}
	}
	// Leaf counters: a first-touch evaluation is one cache miss that
	// visits every component of the decomposition.
	if got := resp.Cost["cache_misses"]; got != 1 {
		t.Errorf("cost cache_misses = %d, want 1", got)
	}
	if got := resp.Cost["eval_components"]; got <= 0 {
		t.Errorf("cost eval_components = %d, want > 0", got)
	}
	if got := resp.Cost["parse_bytes"]; got <= 0 {
		t.Errorf("cost parse_bytes = %d, want > 0", got)
	}

	// The repeat is a pure cache hit: one hit, no miss, no eval span.
	repeat, _ := postQuery(t, s, "/query?trace=1", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})
	if !repeat.Cached {
		t.Fatal("repeat cert-ans missed the answer cache")
	}
	if got := repeat.Cost["cache_hits"]; got != 1 {
		t.Errorf("repeat cost cache_hits = %d, want 1", got)
	}
	if got := repeat.Cost["cache_misses"]; got != 0 {
		t.Errorf("repeat cost cache_misses = %d, want 0", got)
	}
	if repeat.RequestID == resp.RequestID {
		t.Error("request IDs must be unique per request")
	}
}

// Untraced requests must not carry trace fields — the hot path stays
// lean and the JSON shape unchanged.
func TestUntracedResponseHasNoTraceFields(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	_, rec := postQuery(t, s, "/query", &server.Request{DB: "sensors", Op: "count"})
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("every response should carry X-Request-Id")
	}
	var m map[string]any
	json.Unmarshal(rec.Body.Bytes(), &m)
	for _, field := range []string{"trace", "cost", "request_id"} {
		if _, ok := m[field]; ok {
			t.Errorf("untraced response leaked %q field", field)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	hi := mustRead(t, hiQueryPath)
	postQuery(t, s, "/query", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})
	postQuery(t, s, "/query?explain=1", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`pwd_requests_total{op="cert-ans"} 2`,
		`pwd_answer_cache_hits_total 1`,
		`pwd_answer_cache_misses_total 1`,
		`pwd_request_seconds_bucket{op="cert-ans",le="+Inf"} 2`,
		// Per-db families: versions and resident backend kinds.
		`pwd_db_version{db="personnel"} 1`,
		`pwd_db_version{db="sensors"} 1`,
		// Normalize's vertical-split rule rewrites the two-valued sensor
		// components into attribute templates, so sensors is attr-resident.
		`pwd_db_backend_info{db="sensors",backend="wsd",kind="attr"} 1`,
		`pwd_db_backend_info{db="personnel",backend="table",kind="table"} 1`,
		`pwd_db_answer_cache_hits_total{db="sensors"} 1`,
		`pwd_db_answer_cache_misses_total{db="sensors"} 1`,
		`pwd_db_answer_cache_entries{db="sensors"} 1`,
		// The introspection families: one of the two queries asked for a
		// plan, and both requests landed in the flight recorder.
		`pwd_explain_total 1`,
		`pwd_flight_records_total 2`,
		`pwd_flight_entries 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The HTTP-layer counter covers /query by status code; the two
	// queries above were both 200s. (This scrape itself is counted only
	// after the handler returns.)
	if !strings.Contains(body, `pwd_http_requests_total{path="/query",code="200"} 2`) {
		t.Errorf("/metrics missing /query http counter:\n%s", grepLines(body, "pwd_http_requests_total"))
	}
}

// grepLines returns the lines of s containing sub (test failure aid).
func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestStatsReportsPerDB(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	hi := mustRead(t, hiQueryPath)
	postQuery(t, s, "/query", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})
	postQuery(t, s, "/query", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})

	st := s.Stats()
	if len(st.DBs) != 2 {
		t.Fatalf("stats dbs = %d, want 2", len(st.DBs))
	}
	byName := map[string]server.DBStats{}
	for _, d := range st.DBs {
		byName[d.Name] = d
	}
	sensors := byName["sensors"]
	if sensors.Backend != "wsd" || sensors.Kind != "attr" {
		t.Errorf("sensors backend/kind = %s/%s, want wsd/attr", sensors.Backend, sensors.Kind)
	}
	if sensors.Version != 1 {
		t.Errorf("sensors version = %d, want 1", sensors.Version)
	}
	if sensors.AnswerHits != 1 || sensors.AnswerMisses != 1 || sensors.AnswerEntries != 1 {
		t.Errorf("sensors cache stats = %+v, want 1 hit, 1 miss, 1 entry", sensors)
	}
	personnel := byName["personnel"]
	if personnel.Backend != "table" || personnel.Kind != "table" {
		t.Errorf("personnel backend/kind = %s/%s, want table/table", personnel.Backend, personnel.Kind)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, server.Config{
		Workers:            2,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       &buf,
	})
	hi := mustRead(t, hiQueryPath)
	_, rec := postQuery(t, s, "/query", &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})

	// One JSON object per line, correlated to the HTTP response by
	// request_id == X-Request-Id.
	line := strings.TrimSpace(buf.String())
	var entry struct {
		Time      string           `json:"time"`
		RequestID string           `json:"request_id"`
		Op        string           `json:"op"`
		DB        string           `json:"db"`
		Fp        string           `json:"fp"`
		DurUS     int64            `json:"us"`
		Status    int              `json:"status"`
		Plan      string           `json:"plan"`
		Cost      map[string]int64 `json:"cost"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow-query line is not one JSON object: %v\n%s", err, line)
	}
	if entry.Op != "cert-ans" || entry.DB != "sensors" || entry.Status != 200 {
		t.Errorf("slow-query line op/db/status = %q/%q/%d, want cert-ans/sensors/200", entry.Op, entry.DB, entry.Status)
	}
	if entry.Time == "" || entry.Fp == "" {
		t.Errorf("slow-query line missing time or fingerprint:\n%s", line)
	}
	if got := rec.Header().Get("X-Request-Id"); entry.RequestID != got {
		t.Errorf("slow-query request_id %q != X-Request-Id %q", entry.RequestID, got)
	}
	if entry.Cost["cache_misses"] != 1 {
		t.Errorf("slow-query cost missing cache_misses=1:\n%s", line)
	}
	if !strings.Contains(entry.Plan, "components=") {
		t.Errorf("slow-query plan summary missing components: %q", entry.Plan)
	}
}

// TestSlowLogConcurrent: concurrent slow requests share the configured
// writer, which need not be safe for concurrent use; every request must
// land as exactly one whole line.
func TestSlowLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, server.Config{
		Workers:            2,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	const goroutines, each = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Do(&server.Request{DB: "sensors", Op: "count"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*each {
		t.Fatalf("slow log has %d lines, want %d", len(lines), goroutines*each)
	}
	for i, line := range lines {
		var r server.FlightRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Op != "count" {
			t.Fatalf("line %d does not decode to a count record (%v):\n%s", i, err, line)
		}
	}
}

// TestSlowLineIsFlightRecord: a slow-query line is the request's flight
// record, field for field, on success and on failure.
func TestSlowLineIsFlightRecord(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, server.Config{
		Workers:            2,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
	})
	for _, req := range []*server.Request{
		{DB: "sensors", Op: "cert-ans", Query: mustRead(t, hiQueryPath)},
		{DB: "nope", Op: "count"},
	} {
		buf.Reset()
		postRaw(t, s, "/query", req)
		var line server.FlightRecord
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatalf("%s: slow line does not decode: %v\n%s", req.Op, err, buf.String())
		}
		var records []server.FlightRecord
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &records); err != nil || len(records) == 0 {
			t.Fatalf("%s: /debug/requests = %v (%v)", req.Op, rec.Body.String(), err)
		}
		if !reflect.DeepEqual(line, records[0]) {
			t.Errorf("%s: slow line and flight record differ:\n%+v\n%+v", req.Op, line, records[0])
		}
		if wantClass := req.DB == "nope"; (line.ErrorClass != "") != wantClass {
			t.Errorf("%s: error_class = %q", req.Op, line.ErrorClass)
		}
	}
}
