// EXPLAIN and flight-recorder coverage: ?explain=1 plan attachment
// (evaluated and probe paths, cache hits), the /debug/requests ring,
// and the error-path trace contract — a 422 refusal under ?trace=1
// still returns a complete span tree annotated with the error class.
package server_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"pw/internal/obs"
	"pw/internal/server"
	"pw/internal/wsdalg"
)

// postRaw POSTs one /query body and returns the recorder without
// asserting the status — error-path tests read the code themselves.
func postRaw(t *testing.T, s *server.Server, target string, req *server.Request) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	return rec
}

func TestExplainQuery(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	hi := mustRead(t, hiQueryPath)
	req := &server.Request{DB: "sensors", Op: "cert-ans", Query: hi}

	resp, _ := postQuery(t, s, "/query?explain=1", req)
	if resp.Plan == nil {
		t.Fatal("?explain=1 response carries no plan")
	}
	if resp.Plan.Components <= 0 || resp.Plan.WorldCount == "" {
		t.Errorf("plan header incomplete: components=%d worlds=%q", resp.Plan.Components, resp.Plan.WorldCount)
	}
	if len(resp.Plan.Outs) != 1 || resp.Plan.Readout == nil {
		t.Errorf("plan missing out tree or readout stats: %+v", resp.Plan)
	}
	var units int64
	for _, n := range resp.Plan.Outs {
		if n.Act.Parts <= 0 {
			t.Errorf("out node %q has no actual parts", n.Detail)
		}
		units += n.Act.Units
	}

	// A cache hit serves the plan recorded when the entry was evaluated.
	again, _ := postQuery(t, s, "/query?explain=1", req)
	if !again.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	if again.Plan == nil || again.Plan.Components != resp.Plan.Components {
		t.Errorf("cache hit lost the stored plan: %+v", again.Plan)
	}

	// Without the flag the plan stays server-side.
	plain, _ := postQuery(t, s, "/query", req)
	if plain.Plan != nil {
		t.Error("un-explained response carries a plan")
	}
}

// TestExplainProbePlan: decomposition-native ops (no algebra
// evaluation) still answer ?explain=1, with a summary probe plan.
func TestExplainProbePlan(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	resp, _ := postQuery(t, s, "/query?explain=1", &server.Request{DB: "sensors", Op: "count"})
	if resp.Plan == nil {
		t.Fatal("?explain=1 count response carries no plan")
	}
	if resp.Plan.Query != "count" || resp.Plan.Components <= 0 || resp.Plan.WorldCount != resp.Count {
		t.Errorf("probe plan = %+v, want op count, components>0, worlds=%s", resp.Plan, resp.Count)
	}
}

func TestFlightRecorder(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	okRec := postRaw(t, s, "/query", &server.Request{DB: "sensors", Op: "count"})
	if okRec.Code != 200 {
		t.Fatalf("count: HTTP %d: %s", okRec.Code, okRec.Body.String())
	}
	errRec := postRaw(t, s, "/query", &server.Request{DB: "sensors", Op: "nope"})
	if errRec.Code != 400 {
		t.Fatalf("bad op: HTTP %d, want 400", errRec.Code)
	}

	r := httptest.NewRequest("GET", "/debug/requests", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != 200 {
		t.Fatalf("GET /debug/requests: HTTP %d", rec.Code)
	}
	var records []server.FlightRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &records); err != nil {
		t.Fatalf("decode flight records: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("flight recorder holds %d records, want 2", len(records))
	}
	// Newest first: the failed request, then the count.
	fail, ok := records[0], records[1]
	if fail.Op != "nope" || fail.Status != 400 || fail.Error == "" {
		t.Errorf("newest record = %+v, want the 400 nope request", fail)
	}
	if fail.RequestID != errRec.Header().Get("X-Request-Id") {
		t.Errorf("flight record id %q != X-Request-Id %q", fail.RequestID, errRec.Header().Get("X-Request-Id"))
	}
	if ok.Op != "count" || ok.Status != 200 || ok.DB != "sensors" || ok.Time.IsZero() {
		t.Errorf("older record = %+v, want the 200 count request", ok)
	}
	if ok.RequestID != okRec.Header().Get("X-Request-Id") {
		t.Errorf("flight record id %q != X-Request-Id %q", ok.RequestID, okRec.Header().Get("X-Request-Id"))
	}
}

// TestFlightRecorderBound: the ring keeps only the last FlightSize
// requests; a negative size disables recording entirely.
func TestFlightRecorderBound(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2, FlightSize: 2})
	for i := 0; i < 5; i++ {
		postQuery(t, s, "/query", &server.Request{DB: "sensors", Op: "count"})
	}
	if n := len(s.FlightRecords()); n != 2 {
		t.Errorf("ring holds %d records, want 2", n)
	}

	off := newTestServer(t, server.Config{Workers: 2, FlightSize: -1})
	postQuery(t, off, "/query", &server.Request{DB: "sensors", Op: "count"})
	if got := off.FlightRecords(); len(got) != 0 || got == nil {
		t.Errorf("disabled recorder returned %v, want empty non-nil slice", got)
	}
}

// TestTraceOnError is the error-path regression for trace and explain
// parity: a query whose choiceof axis entangles every sensor component
// past the merge bound is refused with 422, and the ?trace=1&explain=1
// error body still carries the request ID, the complete span tree with
// the refusal class annotated on the root and the eval span, the cost
// spent before the failure, and the partial plan with its !class node.
func TestTraceOnError(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	pick := "@query pick\n  out: A = choiceof(Reading(sensor value))\n"
	rec := postRaw(t, s, "/query?trace=1&explain=1", &server.Request{DB: "sensors", Op: "cert-ans", Query: pick})
	if rec.Code != 422 {
		t.Fatalf("choiceof query: HTTP %d, want 422: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Error     string           `json:"error"`
		RequestID string           `json:"request_id"`
		Trace     *obs.SpanNode    `json:"trace"`
		Cost      map[string]int64 `json:"cost"`
		Plan      *wsdalg.Plan     `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if body.Error == "" || body.Trace == nil {
		t.Fatalf("422 body missing error or trace: %s", rec.Body.String())
	}
	if body.RequestID != rec.Header().Get("X-Request-Id") {
		t.Errorf("error body request_id %q != X-Request-Id %q", body.RequestID, rec.Header().Get("X-Request-Id"))
	}
	if body.Trace.Error != "entangled" {
		t.Errorf("root span error = %q, want entangled", body.Trace.Error)
	}
	var sawEval bool
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == "eval" {
			sawEval = true
			if n.Error != "entangled" {
				t.Errorf("eval span error = %q, want entangled", n.Error)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(body.Trace)
	if !sawEval {
		t.Errorf("span tree has no eval span — the tree did not finish:\n%s", rec.Body.String())
	}
	if body.Cost["parse_bytes"] == 0 {
		t.Errorf("error body cost counters empty: %v", body.Cost)
	}
	if body.Plan == nil || body.Plan.Error != "entangled" {
		t.Fatalf("422 explain body must carry the partial plan with its error class: %s", rec.Body.String())
	}
}

// TestExplainOnErrorUntraced: the partial plan rides ?explain=1 even
// without ?trace=1 — the two opt-ins are independent.
func TestExplainOnErrorUntraced(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	pick := "@query pick\n  out: A = choiceof(Reading(sensor value))\n"
	rec := postRaw(t, s, "/query?explain=1", &server.Request{DB: "sensors", Op: "cert-ans", Query: pick})
	if rec.Code != 422 {
		t.Fatalf("choiceof query: HTTP %d, want 422: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Plan *wsdalg.Plan `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if body.Plan == nil || body.Plan.Error != "entangled" {
		t.Fatalf("untraced 422 explain body misses the partial plan: %s", rec.Body.String())
	}
}
