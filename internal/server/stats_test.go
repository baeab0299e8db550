package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStatsMatchMetrics: /stats reads the counters /metrics exposes, so
// after mixed traffic — prepared hit and miss, answer hit and miss, a
// miss that reuses a kept plan, a coalesced pair of concurrent
// identical misses, and an error — every Stats counter equals its
// /metrics series. A one-entry answer cache lets a query's answer be
// evicted while its prepared query keeps the plan.
func TestStatsMatchMetrics(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	if err := s.Open("sensors", "../../examples/data/sensors.pw"); err != nil {
		t.Fatal(err)
	}
	query := func(v string) *Request {
		return &Request{DB: "sensors", Op: "cert-ans",
			Query: "@query q\n  out: A = select[#value = " + v + "](Reading(sensor value))\n"}
	}
	for _, v := range []string{"hi", "hi", "lo", "hi"} {
		if _, err := s.Do(query(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Do(&Request{DB: "nope", Op: "count"}); err == nil {
		t.Fatal("request on an unknown database succeeded")
	}

	// Holding the only admission slot parks the leader's evaluation
	// inside its flight, so a follower that misses meanwhile joins it.
	// The follower's last steps before joining are not observable, so a
	// pair that failed to coalesce is retried with a fresh query.
	for attempt := 0; s.metrics.coalesced.Value() == 0; attempt++ {
		if attempt == 20 {
			t.Fatal("no concurrent identical miss pair coalesced in 20 attempts")
		}
		req := query(fmt.Sprintf("v%d", attempt))
		s.sem <- struct{}{}
		misses := s.metrics.ansMisses.Value()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Do(req); err != nil {
					t.Error(err)
				}
			}()
		}
		for s.metrics.ansMisses.Value() < misses+2 {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
		<-s.sem
		wg.Wait()
	}

	var body bytes.Buffer
	s.WriteMetrics(&body)
	st := s.Stats()
	for _, c := range []struct {
		name  string
		stats int64
	}{
		{"pwd_requests_total", st.Requests},
		{"pwd_request_errors_total", st.Errors},
		{"pwd_prepared_hits_total", st.PreparedHits},
		{"pwd_prepared_misses_total", st.PreparedMisses},
		{"pwd_answer_cache_hits_total", st.AnswerHits},
		{"pwd_answer_cache_misses_total", st.AnswerMisses},
		{"pwd_coalesced_total", st.Coalesced},
		{"pwd_plan_reused_total", st.PlanReused},
		{"pwd_inflight_evals", st.InFlightEvals},
		{"pwd_answer_cache_entries", int64(st.AnswerEntries)},
		{"pwd_prepared_entries", int64(st.PreparedCached)},
		{`pwd_db_version{db="sensors"}`, int64(st.DBs[0].Version)},
		{`pwd_db_answer_cache_hits_total{db="sensors"}`, st.DBs[0].AnswerHits},
		{`pwd_db_answer_cache_misses_total{db="sensors"}`, st.DBs[0].AnswerMisses},
		{`pwd_db_answer_cache_entries{db="sensors"}`, int64(st.DBs[0].AnswerEntries)},
	} {
		if got := metricSum(t, body.String(), c.name); got != c.stats {
			t.Errorf("%s = %d, Stats reports %d", c.name, got, c.stats)
		}
	}
	if st.Errors != 1 || st.PreparedHits == 0 || st.PreparedMisses == 0 ||
		st.AnswerHits == 0 || st.AnswerMisses == 0 || st.Coalesced == 0 || st.PlanReused == 0 {
		t.Errorf("traffic did not cover every counter: %+v", st)
	}
}

// metricSum sums the samples of one series (an exact name{labels}) or
// of every series of one family (a bare name) in a text exposition.
func metricSum(t *testing.T, body, name string) int64 {
	t.Helper()
	var sum int64
	for _, line := range strings.Split(body, "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		sum += n
	}
	return sum
}
