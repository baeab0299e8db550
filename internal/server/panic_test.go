package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestPanickingRequestIsRecorded: a request whose dispatch panics is
// answered with HTTP 500 and recorded like any failed request — counted
// in pwd_requests_total and pwd_request_errors_total, kept in the flight
// recorder with error class "panic" — and the server keeps serving.
func TestPanickingRequestIsRecorded(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Open("sensors", "../../examples/data/sensors.pw"); err != nil {
		t.Fatal(err)
	}
	testHookDispatch = func(req *Request) {
		if req.Op == "count" {
			panic("boom")
		}
	}
	defer func() { testHookDispatch = nil }()
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(`{"db":"sensors","op":"count"}`)))
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), "panic: boom") {
		t.Fatalf("panicking request: HTTP %d %s, want 500 naming the panic", rec.Code, rec.Body.String())
	}
	if !strings.Contains(logged.String(), "boom") || !strings.Contains(logged.String(), "goroutine") {
		t.Errorf("panic not logged with its stack:\n%s", logged.String())
	}
	_, err := s.Do(&Request{DB: "sensors", Op: "count"})
	var se *Error
	if !errors.As(err, &se) || se.Status != 500 || errorClass(err) != "panic" {
		t.Fatalf("Do of a panicking request: %v, want a 500 *Error of class panic", err)
	}

	// The server still answers requests that do not panic.
	if _, err := s.Do(&Request{DB: "sensors", Op: "poss", Facts: "@relation Reading(2)\n  fact: hub online\n"}); err != nil {
		t.Fatal(err)
	}

	var body bytes.Buffer
	s.WriteMetrics(&body)
	for name, want := range map[string]int64{
		`pwd_requests_total{op="count"}`:                    2,
		`pwd_request_errors_total{op="count"}`:              2,
		`pwd_requests_total{op="poss"}`:                     1,
		`pwd_request_errors_total{op="poss"}`:               0,
		`pwd_http_requests_total{path="/query",code="500"}`: 1,
	} {
		if got := metricSum(t, body.String(), name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var flights []FlightRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &flights); err != nil {
		t.Fatal(err)
	}
	if len(flights) != 3 {
		t.Fatalf("flight recorder holds %d records, want 3", len(flights))
	}
	first := flights[2] // newest first: the HTTP request is the oldest
	if first.Op != "count" || first.Status != 500 || first.ErrorClass != "panic" || !strings.Contains(first.Error, "boom") {
		t.Errorf("flight record of the panicking request: %+v", first)
	}
}
