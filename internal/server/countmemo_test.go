package server

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// countMemoDB opens a 32-world database: five independent two-way
// components, so every count these tests read has two digits and is a
// heap string (one-byte strings come from a static table and would
// share a pointer anyway).
func countMemoDB(t *testing.T) *Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.pw")
	body := "@wsd\n  relation: R(1)\n"
	for _, alts := range [][2]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"}, {"i", "j"}} {
		body += "  component:\n    alt: R(" + alts[0] + ")\n    alt: R(" + alts[1] + ")\n"
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	if err := s.Open("db", path); err != nil {
		t.Fatal(err)
	}
	return s
}

// installedCount is the installed version's memoized count text.
func installedCount(s *Server) string {
	db := s.dbs["db"]
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rep.WSD.CountString()
}

// TestWriteSeedsCountMemo checks that a write leaves the installed
// version's world-count text memoized with the count it reported, so
// the next count read does not format it again.
func TestWriteSeedsCountMemo(t *testing.T) {
	s := countMemoDB(t)
	for i, update := range []string{
		"@update\n  insert: R(z)\n",
		"@update\n  assume: R(a)\n",
	} {
		resp, err := s.Do(&Request{DB: "db", Op: "write", Update: update})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if c := installedCount(s); c != resp.Count || unsafe.StringData(c) != unsafe.StringData(resp.Count) {
			t.Fatalf("write %d reported count %s; the installed version's memo holds %q, not that string", i, resp.Count, c)
		}
	}
}

// TestCountPreservingWriteReusesMemo checks that a write keeping the
// world count replies with the base version's memoized string itself,
// not a freshly formatted copy, and that a write changing the count
// replies with the new version's count.
func TestCountPreservingWriteReusesMemo(t *testing.T) {
	s := countMemoDB(t)
	if _, err := s.Do(&Request{DB: "db", Op: "count"}); err != nil {
		t.Fatal(err)
	}
	before := installedCount(s)
	resp, err := s.Do(&Request{DB: "db", Op: "write", Update: "@update\n  insert: R(z)\n"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != "32" || unsafe.StringData(resp.Count) != unsafe.StringData(before) {
		t.Errorf("count-preserving write replied %q formatted afresh; want the memoized %q", resp.Count, before)
	}
	if c := installedCount(s); unsafe.StringData(c) != unsafe.StringData(before) {
		t.Errorf("new version's count text %q is not the reused string", c)
	}
	resp, err = s.Do(&Request{DB: "db", Op: "write", Update: "@update\n  assume: R(a)\n"})
	if err != nil {
		t.Fatal(err)
	}
	db := s.dbs["db"]
	db.mu.RLock()
	want := db.rep.WSD.Count().String()
	db.mu.RUnlock()
	if resp.Count != want || want != "16" {
		t.Errorf("count-changing write replied %q; want the new version's count %q (16)", resp.Count, want)
	}
}
