package server_test

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pw/internal/server"
)

const (
	sensorsPath   = "../../examples/data/sensors.pw"
	personnelPath = "../../examples/data/personnel.pw"
	worldPath     = "../../examples/data/sensors_world.pw"
	hiQueryPath   = "../../examples/data/sensors_hi.pw"
)

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newTestServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s := server.New(cfg)
	if err := s.Open("sensors", sensorsPath); err != nil {
		t.Fatal(err)
	}
	if err := s.Open("personnel", personnelPath); err != nil {
		t.Fatal(err)
	}
	return s
}

func do(t *testing.T, s *server.Server, req *server.Request) *server.Response {
	t.Helper()
	resp, err := s.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.DB, req.Op, err)
	}
	return resp
}

func wantYes(t *testing.T, resp *server.Response, want bool) {
	t.Helper()
	if resp.Answer == nil {
		t.Fatalf("%s %s: no answer in response", resp.DB, resp.Op)
	}
	if *resp.Answer != want {
		t.Fatalf("%s %s = %v, want %v", resp.DB, resp.Op, *resp.Answer, want)
	}
}

func TestFactProbesOnResidentWSD(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	world := mustRead(t, worldPath)

	wantYes(t, do(t, s, &server.Request{DB: "sensors", Op: "memb", Inst: world}), true)
	wantYes(t, do(t, s, &server.Request{DB: "sensors", Op: "uniq", Inst: world}), false)
	wantYes(t, do(t, s, &server.Request{DB: "sensors", Op: "poss",
		Facts: "@relation Reading(2)\n  fact: s00 hi\n"}), true)
	wantYes(t, do(t, s, &server.Request{DB: "sensors", Op: "cert",
		Facts: "@relation Reading(2)\n  fact: s00 hi\n"}), false)
	wantYes(t, do(t, s, &server.Request{DB: "sensors", Op: "cert",
		Facts: "@relation Reading(2)\n  fact: hub online\n"}), true)

	if resp := do(t, s, &server.Request{DB: "sensors", Op: "count"}); resp.Count != "1048576" {
		t.Fatalf("count = %s, want 1048576", resp.Count)
	}
	resp := do(t, s, &server.Request{DB: "sensors", Op: "sample", N: 3, Seed: 7})
	if len(resp.Worlds) != 3 {
		t.Fatalf("sample returned %d worlds, want 3", len(resp.Worlds))
	}
	for _, w := range resp.Worlds {
		wantYes(t, do(t, s, &server.Request{DB: "sensors", Op: "memb", Inst: w}), true)
	}
}

func TestAnswerCacheHitsAndSharing(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	hi := mustRead(t, hiQueryPath)

	first := do(t, s, &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})
	if first.Cached {
		t.Fatal("first cert-ans reported cached")
	}
	repeat := do(t, s, &server.Request{DB: "sensors", Op: "cert-ans", Query: hi})
	if !repeat.Cached {
		t.Fatal("repeat cert-ans missed the answer cache")
	}
	if repeat.Facts != first.Facts {
		t.Fatalf("cached answer differs:\n%s\nvs\n%s", repeat.Facts, first.Facts)
	}
	// poss-ans on the same query reuses the evaluated decomposition.
	poss := do(t, s, &server.Request{DB: "sensors", Op: "poss-ans", Query: hi})
	if !poss.Cached {
		t.Fatal("poss-ans on the same query missed the shared eval entry")
	}
	if !strings.Contains(poss.Facts, "s00 hi") {
		t.Fatalf("poss-ans missing s00 hi:\n%s", poss.Facts)
	}
	// cert-ans of hi is empty (no sensor is certainly hi), but the
	// instance is schema-shaped.
	if !strings.Contains(first.Facts, "@relation Hi(2)") || strings.Contains(first.Facts, "fact:") {
		t.Fatalf("cert-ans should be the empty Hi relation:\n%s", first.Facts)
	}

	st := s.Stats()
	if st.AnswerHits < 2 || st.AnswerMisses < 1 {
		t.Fatalf("stats = %+v, want ≥2 hits and ≥1 miss", st)
	}
	if st.PreparedHits < 2 || st.PreparedMisses < 1 {
		t.Fatalf("stats = %+v, want prepared reuse", st)
	}
}

func TestPreparedQueriesShareFingerprint(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	// Two spellings of the same algebra: extra whitespace and a comment.
	a := "@query hi\n  out: Hi = select[#value = hi](Reading(sensor value))\n"
	b := "# same query, different text\n@query hi\n  out: Hi =   select[#value = hi](Reading(sensor value))\n"
	if r := do(t, s, &server.Request{DB: "sensors", Op: "cert-ans", Query: a}); r.Cached {
		t.Fatal("first spelling reported cached")
	}
	if r := do(t, s, &server.Request{DB: "sensors", Op: "cert-ans", Query: b}); !r.Cached {
		t.Fatal("second spelling missed the cache despite identical canonical form")
	}
}

func TestReloadInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pw")
	writeFile := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("@wsd\n  relation: R(1)\n  component:\n    alt: R(a)\n    alt: R(b)\n")
	s := server.New(server.Config{Workers: 1})
	if err := s.Open("db", path); err != nil {
		t.Fatal(err)
	}
	q := "@query all\n  out: All = R(x)\n"
	first := do(t, s, &server.Request{DB: "db", Op: "poss-ans", Query: q})
	if first.Version != 1 || !strings.Contains(first.Facts, "fact: a") {
		t.Fatalf("version %d facts %q", first.Version, first.Facts)
	}
	if r := do(t, s, &server.Request{DB: "db", Op: "poss-ans", Query: q}); !r.Cached {
		t.Fatal("repeat missed cache before reload")
	}

	writeFile("@wsd\n  relation: R(1)\n  component:\n    alt: R(c)\n")
	if err := s.Reload("db"); err != nil {
		t.Fatal(err)
	}
	after := do(t, s, &server.Request{DB: "db", Op: "poss-ans", Query: q})
	if after.Cached {
		t.Fatal("request after reload served a stale cached answer")
	}
	if after.Version != 2 {
		t.Fatalf("version after reload = %d, want 2", after.Version)
	}
	if !strings.Contains(after.Facts, "fact: c") || strings.Contains(after.Facts, "fact: a") {
		t.Fatalf("answers not refreshed after reload:\n%s", after.Facts)
	}
}

func TestTableBackendOps(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 1})
	// Certain identity answers: the facts in every world. alice and bob
	// are unconditional rows with no nulls.
	r := do(t, s, &server.Request{DB: "personnel", Op: "cert-ans"})
	for _, want := range []string{"alice sales", "bob eng", "sales 1"} {
		if !strings.Contains(r.Facts, want) {
			t.Fatalf("cert-ans missing %q:\n%s", want, r.Facts)
		}
	}
	if strings.Contains(r.Facts, "carol") {
		t.Fatalf("carol's unknown department cannot be certain:\n%s", r.Facts)
	}
	if rr := do(t, s, &server.Request{DB: "personnel", Op: "cert-ans"}); !rr.Cached {
		t.Fatal("repeat table cert-ans missed the cache")
	}
	wantYes(t, do(t, s, &server.Request{DB: "personnel", Op: "poss",
		Facts: "@relation Emp(2)\n  fact: carol eng\n"}), true)
	wantYes(t, do(t, s, &server.Request{DB: "personnel", Op: "cert",
		Facts: "@relation Emp(2)\n  fact: carol eng\n"}), false)

	count := do(t, s, &server.Request{DB: "personnel", Op: "count"})
	if count.Count == "" || count.Count == "0" {
		t.Fatalf("count = %q, want positive canonical-domain count", count.Count)
	}
	if c2 := do(t, s, &server.Request{DB: "personnel", Op: "count"}); !c2.Cached || c2.Count != count.Count {
		t.Fatalf("repeat count: cached=%v count=%s, want cached repeat of %s", c2.Cached, c2.Count, count.Count)
	}

	sample := do(t, s, &server.Request{DB: "personnel", Op: "sample", Seed: 3})
	if len(sample.Worlds) != 1 {
		t.Fatalf("sample returned %d worlds", len(sample.Worlds))
	}
	wantYes(t, do(t, s, &server.Request{DB: "personnel", Op: "memb", Inst: sample.Worlds[0]}), true)
}

func TestContainmentAcrossBackends(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 1})
	// Every database contains itself.
	r := do(t, s, &server.Request{DB: "sensors", Op: "cont", DB2: "sensors"})
	wantYes(t, r, true)
	if rr := do(t, s, &server.Request{DB: "sensors", Op: "cont", DB2: "sensors"}); !rr.Cached {
		t.Fatal("repeat cont missed the cache")
	}
	// personnel's rep is infinite (unfrozen nulls); a finite sensors
	// world set cannot cover it, and the mixed-backend path answers "no"
	// without compiling the infinite side.
	wantYes(t, do(t, s, &server.Request{DB: "personnel", Op: "cont", DB2: "sensors"}), false)
}

func TestRequestErrors(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 1})
	cases := []struct {
		name string
		req  server.Request
	}{
		{"unknown db", server.Request{DB: "nope", Op: "count"}},
		{"missing db", server.Request{Op: "count"}},
		{"missing op", server.Request{DB: "sensors"}},
		{"unknown op", server.Request{DB: "sensors", Op: "frobnicate"}},
		{"memb without inst", server.Request{DB: "sensors", Op: "memb"}},
		{"poss without facts", server.Request{DB: "sensors", Op: "poss"}},
		{"cont without db2", server.Request{DB: "sensors", Op: "cont"}},
		{"malformed query", server.Request{DB: "sensors", Op: "cert-ans", Query: "@query\n  out: Bad = nonsense((("}},
		{"malformed inst", server.Request{DB: "sensors", Op: "memb", Inst: "not a .pw instance"}},
		{"oversized sample", server.Request{DB: "sensors", Op: "sample", N: 100000}},
	}
	for _, c := range cases {
		if _, err := s.Do(&c.req); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if s.Stats().Errors != int64(len(cases)) {
		t.Fatalf("error counter = %d, want %d", s.Stats().Errors, len(cases))
	}
}

func TestDuplicateAndReloadErrors(t *testing.T) {
	s := newTestServer(t, server.Config{})
	if err := s.Open("sensors", sensorsPath); err == nil {
		t.Fatal("duplicate Open succeeded")
	}
	if err := s.Open("query", hiQueryPath); err == nil {
		t.Fatal("opening a @query file as a database succeeded")
	}
	if err := s.Reload("nope"); err == nil {
		t.Fatal("reloading an unknown database succeeded")
	}
}

// TestOpenNamesMisroutedFiles: a @query or @update file opened as a
// database is refused with an error naming what the file is.
func TestOpenNamesMisroutedFiles(t *testing.T) {
	s := server.New(server.Config{})
	for _, tc := range []struct{ path, want string }{
		{hiQueryPath, "is a @query file, not a database"},
		{"../../examples/data/sensors_patch.pw", "is an @update file, not a database"},
	} {
		err := s.Open("misrouted", tc.path)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open(%s): error %v, want one containing %q", tc.path, err, tc.want)
		}
	}
	if len(s.Databases()) != 0 {
		t.Errorf("a refused Open registered a database: %+v", s.Databases())
	}
}

func httpJSON(t *testing.T, s *server.Server, method, target, body string, wantStatus int, out any) {
	t.Helper()
	var r *httptest.ResponseRecorder
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	r = httptest.NewRecorder()
	s.Handler().ServeHTTP(r, req)
	if r.Code != wantStatus {
		t.Fatalf("%s %s: HTTP %d, want %d: %s", method, target, r.Code, wantStatus, r.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(r.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, target, err)
		}
	}
}

// TestWorldSetOpOnTableIs422: a @table database answers through lifted
// c-table evaluation, which has no world set for possible to range
// over. The refusal is algebra.ErrWorldSetOp, a query outside the
// backend's fragment, so it answers 422 rather than 400.
func TestWorldSetOpOnTableIs422(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})
	var body struct{ Error string }
	httpJSON(t, s, "POST", "/query",
		`{"db":"personnel","op":"cert-ans","query":"@query q\n  out: Q = possible(Emp(n d))\n"}`,
		422, &body)
	if !strings.Contains(body.Error, "world-set operator outside a world-set context") {
		t.Fatalf("error = %q, want the world-set refusal", body.Error)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 2})

	var resp server.Response
	httpJSON(t, s, "POST", "/query",
		`{"db":"sensors","op":"poss","facts":"@relation Reading(2)\n  fact: s03 hi\n"}`,
		200, &resp)
	if resp.Answer == nil || !*resp.Answer {
		t.Fatalf("poss over HTTP = %+v, want yes", resp)
	}

	var dbs []server.DBInfo
	httpJSON(t, s, "GET", "/dbs", "", 200, &dbs)
	if len(dbs) != 2 || dbs[0].Name != "personnel" || dbs[1].Name != "sensors" {
		t.Fatalf("/dbs = %+v", dbs)
	}
	if dbs[1].Backend != "wsd" || dbs[1].Count != "1048576" {
		t.Fatalf("sensors info = %+v", dbs[1])
	}
	if dbs[0].Backend != "table" {
		t.Fatalf("personnel info = %+v", dbs[0])
	}

	var st server.Stats
	httpJSON(t, s, "GET", "/stats", "", 200, &st)
	if st.Requests == 0 {
		t.Fatalf("stats = %+v, want requests counted", st)
	}

	// Error classification: bad request body, unknown database, and a
	// query whose choiceof axis entangles every sensor component past
	// the merge bound (≠ selections are evaluable natively these days,
	// so entanglement is the canonical 422).
	httpJSON(t, s, "POST", "/query", `{"nope":1}`, 400, nil)
	httpJSON(t, s, "POST", "/query", `{"db":"ghost","op":"count"}`, 404, nil)
	httpJSON(t, s, "POST", "/query",
		`{"db":"sensors","op":"cert-ans","query":"@query q\n  out: Q = choiceof(Reading(s v))\n"}`,
		422, nil)
	httpJSON(t, s, "POST", "/reload", "", 400, nil)
	httpJSON(t, s, "POST", "/reload?db=ghost", "", 404, nil)

	r := httptest.NewRecorder()
	s.Handler().ServeHTTP(r, httptest.NewRequest("GET", "/healthz", nil))
	if r.Code != 200 || !strings.Contains(r.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", r.Code, r.Body.String())
	}
	r = httptest.NewRecorder()
	s.Handler().ServeHTTP(r, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if r.Code != 200 {
		t.Fatalf("/debug/pprof/ = %d", r.Code)
	}
	r = httptest.NewRecorder()
	s.Handler().ServeHTTP(r, httptest.NewRequest("GET", "/debug/vars", nil))
	if r.Code != 200 {
		t.Fatalf("/debug/vars = %d", r.Code)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := server.New(server.Config{Workers: 1, CacheSize: -1})
	if err := s.Open("sensors", sensorsPath); err != nil {
		t.Fatal(err)
	}
	hi := mustRead(t, hiQueryPath)
	for i := 0; i < 2; i++ {
		if r := do(t, s, &server.Request{DB: "sensors", Op: "cert-ans", Query: hi}); r.Cached {
			t.Fatalf("request %d reported cached with caching disabled", i)
		}
	}
	st := s.Stats()
	if st.AnswerHits != 0 || st.AnswerEntries != 0 {
		t.Fatalf("stats = %+v, want no hits and no entries", st)
	}
}
