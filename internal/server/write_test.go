// Write-path tests: the "write" op end to end (apply, version bump,
// cache purge), the POST /update endpoint, the sample-seed default
// regression, and the update hammer — concurrent readers, writers, and
// reloaders where every read must observe exactly one of the states an
// atomic write history can produce (no torn reads).
package server_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pw/internal/server"
)

const writeBase = "@wsd\n  relation: R(1)\n  component:\n    alt: R(a)\n    alt: R(b)\n"

func newWriteServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pw")
	if err := os.WriteFile(path, []byte(writeBase), 0o644); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 2})
	if err := s.Open("db", path); err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestWriteOpInstallsNewVersion(t *testing.T) {
	s, _ := newWriteServer(t)

	resp := do(t, s, &server.Request{DB: "db", Op: "write", Update: "@update\n  insert: R(c)\n"})
	if resp.Version != 2 || resp.Count != "2" {
		t.Fatalf("after insert: version %d count %s, want version 2 count 2", resp.Version, resp.Count)
	}
	cert := do(t, s, &server.Request{DB: "db", Op: "cert-ans"})
	if !strings.Contains(cert.Facts, "fact: c") {
		t.Fatalf("inserted fact not certain:\n%s", cert.Facts)
	}
	if cert.Version != 2 {
		t.Fatalf("read after write at version %d, want 2", cert.Version)
	}

	resp = do(t, s, &server.Request{DB: "db", Op: "write", Update: "@update\n  assume: R(a)\n"})
	if resp.Version != 3 || resp.Count != "1" {
		t.Fatalf("after assume: version %d count %s, want version 3 count 1", resp.Version, resp.Count)
	}
	cert = do(t, s, &server.Request{DB: "db", Op: "cert-ans"})
	if !strings.Contains(cert.Facts, "fact: a") || strings.Contains(cert.Facts, "fact: b") {
		t.Fatalf("assume did not pin the world:\n%s", cert.Facts)
	}
}

func TestWriteOpErrors(t *testing.T) {
	s, _ := newWriteServer(t)
	if err := s.Open("personnel", personnelPath); err != nil {
		t.Fatal(err)
	}
	body := func(req *server.Request) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name   string
		req    server.Request
		status int
	}{
		{"unknown db", server.Request{DB: "nope", Op: "write", Update: "@update\n  insert: R(a)\n"}, 404},
		{"missing update", server.Request{DB: "db", Op: "write"}, 400},
		{"parse error", server.Request{DB: "db", Op: "write", Update: "@update\n  upsert: R(a)\n"}, 400},
		{"table-backed", server.Request{DB: "personnel", Op: "write", Update: "@update\n  insert: Emp(x y)\n"}, 422},
		{"engine error", server.Request{DB: "db", Op: "write", Update: "@update\n  insert: Q(a)\n"}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			httpJSON(t, s, "POST", "/query", body(&tc.req), tc.status, nil)
		})
	}
	// Failed writes must not bump the version.
	if v := do(t, s, &server.Request{DB: "db", Op: "count"}); v.Version != 1 {
		t.Fatalf("failed writes bumped version to %d", v.Version)
	}
}

// TestVersionBumpPurgesAnswerCache is the regression test for the cache
// leak: answers cached against a dead version used to squat in the LRU
// until capacity pressure evicted them (their keys could never be
// requested again). Both reload and write must purge them — and must
// leave other databases' entries alone.
func TestVersionBumpPurgesAnswerCache(t *testing.T) {
	s, path := newWriteServer(t)
	if err := s.Open("sensors", sensorsPath); err != nil {
		t.Fatal(err)
	}
	// sub holds the one world {R(z)}; its cont entries against db keep
	// db as the superset side, so only db2's version bumps reach them.
	subPath := filepath.Join(filepath.Dir(path), "sub.pw")
	if err := os.WriteFile(subPath, []byte("@wsd\n  relation: R(1)\n  component:\n    alt: R(z)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Open("sub", subPath); err != nil {
		t.Fatal(err)
	}
	subEntries := func() int {
		for _, d := range s.Stats().DBs {
			if d.Name == "sub" {
				return d.AnswerEntries
			}
		}
		t.Fatal("sub missing from DBStats")
		return 0
	}
	// cont asks sub ⊆ db and wants an evaluated (not cached) answer.
	cont := func(want bool) {
		t.Helper()
		resp := do(t, s, &server.Request{DB: "sub", Op: "cont", DB2: "db"})
		if resp.Cached {
			t.Fatal("cont served a cached answer from before db's version bump")
		}
		wantYes(t, resp, want)
	}

	allQ := "@query all\n  out: All = R(x)\n"
	do(t, s, &server.Request{DB: "db", Op: "poss-ans"})
	do(t, s, &server.Request{DB: "db", Op: "poss-ans", Query: allQ})
	do(t, s, &server.Request{DB: "sensors", Op: "poss-ans"})
	if n := s.Stats().AnswerEntries; n != 3 {
		t.Fatalf("cache primed with %d entries, want 3", n)
	}
	cont(false) // db's worlds are {R(a)} and {R(b)}
	if !do(t, s, &server.Request{DB: "sub", Op: "cont", DB2: "db"}).Cached {
		t.Fatal("repeated cont not served from the cache")
	}
	if n := subEntries(); n != 1 {
		t.Fatalf("sub has %d entries after cont, want 1", n)
	}

	if err := os.WriteFile(path, []byte("@wsd\n  relation: R(1)\n  component:\n    alt: R(z)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload("db"); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().AnswerEntries; n != 1 {
		t.Fatalf("after reload: %d entries, want 1 (db's dead-version entries purged, sensors' kept)", n)
	}
	if n := subEntries(); n != 0 {
		t.Fatalf("after reload of db2: sub has %d entries, want 0 (cont purged)", n)
	}

	do(t, s, &server.Request{DB: "db", Op: "poss-ans"})
	if n := s.Stats().AnswerEntries; n != 2 {
		t.Fatalf("after re-prime: %d entries, want 2", n)
	}
	cont(true) // db is now the one world {R(z)}
	do(t, s, &server.Request{DB: "db", Op: "write", Update: "@update\n  insert: R(w)\n"})
	if n := s.Stats().AnswerEntries; n != 1 {
		t.Fatalf("after write: %d entries, want 1 (write purges like reload, cont included)", n)
	}
	cont(false) // db is now {R(z), R(w)}
}

// TestConcurrentReloadsNewestContentWins drives rounds of racing
// reloads under -race: after each round the file's final content must
// be the live backend, and versions must account for every install.
func TestConcurrentReloadsNewestContentWins(t *testing.T) {
	s, path := newWriteServer(t)
	const rounds, racers = 8, 3
	for round := 0; round < rounds; round++ {
		body := fmt.Sprintf("@wsd\n  relation: R(1)\n  component:\n    alt: R(r%02d)\n", round)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Reload("db"); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		wg.Wait()
		resp := do(t, s, &server.Request{DB: "db", Op: "cert-ans"})
		if want := fmt.Sprintf("fact: r%02d", round); !strings.Contains(resp.Facts, want) {
			t.Fatalf("round %d: live content is stale:\n%s", round, resp.Facts)
		}
		if want := uint64(1 + (round+1)*racers); resp.Version != want {
			t.Fatalf("round %d: version %d, want %d (every reload installs)", round, resp.Version, want)
		}
	}
}

// TestSampleDefaultSeedDistinctFromOne pins the sample-seed contract:
// an omitted seed (JSON zero value) draws from the documented default
// stream, which is deterministic but distinct from the explicit seed=1
// stream. The old behavior coerced 0 to 1, so "no seed" silently
// aliased a client's explicit choice.
func TestSampleDefaultSeedDistinctFromOne(t *testing.T) {
	s := newTestServer(t, server.Config{Workers: 1})
	draw := func(seed int64) []string {
		t.Helper()
		return do(t, s, &server.Request{DB: "sensors", Op: "sample", N: 4, Seed: seed}).Worlds
	}
	def1, def2, one := draw(0), draw(0), draw(1)
	for i := range def1 {
		if def1[i] != def2[i] {
			t.Fatal("default seed is not deterministic")
		}
	}
	same := true
	for i := range def1 {
		if def1[i] != one[i] {
			same = false
		}
	}
	if same {
		t.Fatal("default-seed worlds identical to seed=1 worlds: the default aliases an explicit seed")
	}
}

func TestUpdateHTTPEndpoint(t *testing.T) {
	s, _ := newWriteServer(t)

	// The raw-text endpoint: the body is the @update program itself.
	var resp server.Response
	httpJSON(t, s, "POST", "/update?db=db", "@update\n  insert: R(c)\n", 200, &resp)
	if resp.Version != 2 || resp.Count != "2" {
		t.Fatalf("POST /update returned version %d count %s, want 2 / 2", resp.Version, resp.Count)
	}
	httpJSON(t, s, "POST", "/update", "@update\n  insert: R(d)\n", 400, nil)
	httpJSON(t, s, "POST", "/update?db=db", "not an update", 400, nil)

	// The JSON envelope reaches the same op.
	var resp2 server.Response
	httpJSON(t, s, "POST", "/query",
		`{"db":"db","op":"write","update":"@update\n  delete: R(c)\n"}`, 200, &resp2)
	if resp2.Version != 3 {
		t.Fatalf("write via /query returned version %d, want 3", resp2.Version)
	}
}

// TestUpdateBodyLimit pins that an oversized write is refused whole.
// The program is valid and its 1 MiB mark falls on a line boundary, so
// a reader that silently stopped there would parse and apply a shorter
// program. Both write endpoints must answer 413, leave the version
// alone and apply none of its facts; a program under the limit applies.
func TestUpdateBodyLimit(t *testing.T) {
	s, _ := newWriteServer(t)
	const limit = 1 << 20
	line := func(i int, pad string) string { return fmt.Sprintf("  insert: R(big%07d%s)\n", i, pad) }
	var b strings.Builder
	b.WriteString("@update\n")
	n := len(line(0, ""))
	b.WriteString(line(0, strings.Repeat("x", (limit-b.Len())%n)))
	for i := 1; b.Len() < limit+10*n; i++ {
		b.WriteString(line(i, ""))
	}
	prog := b.String()
	if prog[limit-1] != '\n' {
		t.Fatalf("the 1 MiB mark must end a line")
	}

	httpJSON(t, s, "POST", "/update?db=db", prog, 413, nil)
	envelope, err := json.Marshal(server.Request{DB: "db", Op: "write", Update: prog})
	if err != nil {
		t.Fatal(err)
	}
	httpJSON(t, s, "POST", "/query", string(envelope), 413, nil)
	var dbs []server.DBInfo
	httpJSON(t, s, "GET", "/dbs", "", 200, &dbs)
	if dbs[0].Version != 1 {
		t.Fatalf("refused writes moved the version to %d", dbs[0].Version)
	}
	if facts := do(t, s, &server.Request{DB: "db", Op: "poss-ans"}).Facts; strings.Contains(facts, "big") {
		t.Fatalf("a refused write applied facts:\n%s", facts)
	}

	small := prog[:strings.Index(prog, line(3, ""))]
	var resp server.Response
	httpJSON(t, s, "POST", "/update?db=db", small, 200, &resp)
	if resp.Version != 2 {
		t.Fatalf("write under the limit: version %d, want 2", resp.Version)
	}
	if facts := do(t, s, &server.Request{DB: "db", Op: "cert-ans"}).Facts; !strings.Contains(facts, "big0000002") {
		t.Fatalf("write under the limit did not apply:\n%s", facts)
	}
}

// TestUpdateHammer is the no-torn-reads proof: writers toggle a marker
// fact, a reloader resets to the base file, and readers continuously
// snapshot certain/possible answers. Every observed answer text must be
// exactly one of the states reachable by the atomic write history —
// never a blend of two versions.
func TestUpdateHammer(t *testing.T) {
	s, _ := newWriteServer(t)

	// Compute the canonical answer texts for both states sequentially.
	certBase := do(t, s, &server.Request{DB: "db", Op: "cert-ans"}).Facts
	possBase := do(t, s, &server.Request{DB: "db", Op: "poss-ans"}).Facts
	do(t, s, &server.Request{DB: "db", Op: "write", Update: "@update\n  insert: R(mark)\n"})
	certMark := do(t, s, &server.Request{DB: "db", Op: "cert-ans"}).Facts
	possMark := do(t, s, &server.Request{DB: "db", Op: "poss-ans"}).Facts
	if certBase == certMark || possBase == possMark {
		t.Fatal("marker states are not distinguishable; hammer would prove nothing")
	}
	do(t, s, &server.Request{DB: "db", Op: "write", Update: "@update\n  delete: R(mark)\n"})

	okCert := map[string]bool{certBase: true, certMark: true}
	okPoss := map[string]bool{possBase: true, possMark: true}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	for i := 0; i < 2; i++ { // writers: toggle the marker
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				op := "insert"
				if k%2 == 1 {
					op = "delete"
				}
				req := &server.Request{DB: "db", Op: "write",
					Update: fmt.Sprintf("@update\n  %s: R(mark)\n", op)}
				if _, err := s.Do(req); err != nil {
					report("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() { // reloader: reset to the base file
		defer wg.Done()
		for k := 0; k < 15; k++ {
			if err := s.Reload("db"); err != nil {
				report("reloader: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ { // readers: every answer must be a whole state
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 150; k++ {
				cert, err := s.Do(&server.Request{DB: "db", Op: "cert-ans"})
				if err != nil {
					report("reader %d cert: %v", i, err)
					return
				}
				if !okCert[cert.Facts] {
					report("reader %d: torn certain answers at version %d:\n%s", i, cert.Version, cert.Facts)
					return
				}
				poss, err := s.Do(&server.Request{DB: "db", Op: "poss-ans"})
				if err != nil {
					report("reader %d poss: %v", i, err)
					return
				}
				if !okPoss[poss.Facts] {
					report("reader %d: torn possible answers at version %d:\n%s", i, poss.Version, poss.Facts)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
