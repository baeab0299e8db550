// Query-server probes: the three perf layers of internal/server on the
// ~10^6-world decomposition — the cached cert-ans fast path (an LRU
// lookup plus a memoized readout), the uncached eval path it replaces,
// and HTTP fact-probe throughput with a concurrent client fleet. The
// cached/uncached pair is the headline: the ratio is the answer cache's
// whole value proposition, gated at ≥10× in CI via the baseline.
package experiments

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pw/internal/gen"
	"pw/internal/server"
)

// serverHiQuery selects the hi readings of gen.MillionWorldWSD's S
// relation — the same shape as the WSDQuery_Select_1M probe, so the
// uncached server path is comparable to the bare evaluation (the probe
// applies the written form and assembles the answer world set; the
// server evaluates the planned form and reads the answer sets off the
// parts).
const serverHiQuery = "@query hi\n  out: Hi = select[#value = hi](S(sensor value))\n"

func newBenchServer(b *testing.B, cfg server.Config) *server.Server {
	b.Helper()
	s := server.New(cfg)
	if err := s.AddWSD("db", gen.MillionWorldWSD()); err != nil {
		b.Fatal(err)
	}
	return s
}

func probeServerCertAnsCached(b *testing.B) {
	s := newBenchServer(b, server.Config{Workers: 1})
	req := &server.Request{DB: "db", Op: "cert-ans", Query: serverHiQuery}
	if _, err := s.Do(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		resp, err := s.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("repeat cert-ans missed the answer cache")
		}
	}
}

func probeServerCertAnsUncached(b *testing.B) {
	// CacheSize < 0 disables the answer cache: every request pays
	// prepared-query lookup + wsdalg.Eval (observed, the kept plan
	// reused) + printing the certain set.
	s := newBenchServer(b, server.Config{Workers: 1, CacheSize: -1})
	req := &server.Request{DB: "db", Op: "cert-ans", Query: serverHiQuery}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		resp, err := s.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("cert-ans reported cached with caching disabled")
		}
	}
}

// probeServerHTTPFactProbe drives the HTTP fact-probe fleet against
// /query+suffix. With suffix ?trace=1 every response also carries a span
// tree and cost counters, with ?explain=1 the probe's plan; gated next to
// the plain fleet, those variants bound the observability layer's
// per-request price.
func probeServerHTTPFactProbe(b *testing.B, suffix string) {
	s := newBenchServer(b, server.Config{Workers: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
	}}
	url := ts.URL + "/query" + suffix
	body := `{"db":"db","op":"poss","facts":"@relation S(2)\n  fact: s13 hi\n"}`
	// 8 client goroutines per core: the mixed-fact-probe fleet of the
	// pwload smoke, inside the benchmark harness. ns/op is wall time per
	// completed request across the fleet, so req/s = 1e9 / ns/op.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Errorf("HTTP %d", resp.StatusCode)
				return
			}
		}
	})
}
