package server

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// TestWriteSeedsCountMemo checks that a write leaves the world-count
// memo holding the version it installed, with the count it reported,
// so the next count read does not recompute it.
func TestWriteSeedsCountMemo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pw")
	body := "@wsd\n  relation: R(1)\n  component:\n    alt: R(a)\n    alt: R(b)\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	if err := s.Open("db", path); err != nil {
		t.Fatal(err)
	}
	for i, update := range []string{
		"@update\n  insert: R(c)\n",
		"@update\n  assume: R(a)\n",
	} {
		resp, err := s.Do(&Request{DB: "db", Op: "write", Update: update})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		c := s.dbs["db"].count.Load()
		if c == nil || c.version != resp.Version || c.count != resp.Count {
			t.Fatalf("write %d installed version %d (count %s); memo holds %+v", i, resp.Version, resp.Count, c)
		}
	}
}

// TestCountPreservingWriteReusesMemo checks that a write keeping the
// world count replies with the base version's memoized string itself,
// not a freshly formatted copy, and that a write changing the count
// replies with the new version's Count().String().
func TestCountPreservingWriteReusesMemo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pw")
	// 16 worlds: a count of two digits is a heap string (one-byte
	// strings come from a static table and would share a pointer).
	body := "@wsd\n  relation: R(1)\n"
	for _, alts := range [][2]string{{"a", "b"}, {"c", "d"}, {"e", "f"}, {"g", "h"}} {
		body += "  component:\n    alt: R(" + alts[0] + ")\n    alt: R(" + alts[1] + ")\n"
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	if err := s.Open("db", path); err != nil {
		t.Fatal(err)
	}
	db := s.dbs["db"]
	if _, err := s.Do(&Request{DB: "db", Op: "count"}); err != nil {
		t.Fatal(err)
	}
	before := db.count.Load()
	if before == nil {
		t.Fatal("count read left no memo")
	}
	resp, err := s.Do(&Request{DB: "db", Op: "write", Update: "@update\n  insert: R(z)\n"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != "16" || resp.Count != before.count || unsafe.StringData(resp.Count) != unsafe.StringData(before.count) {
		t.Errorf("count-preserving write replied %q formatted afresh; want the memoized %q", resp.Count, before.count)
	}
	if c := db.count.Load(); c.version != resp.Version || unsafe.StringData(c.count) != unsafe.StringData(before.count) {
		t.Errorf("new version's memo is %+v; want version %d holding the reused string", c, resp.Version)
	}
	resp, err = s.Do(&Request{DB: "db", Op: "write", Update: "@update\n  assume: R(a)\n"})
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	want := db.wsd.Count().String()
	db.mu.RUnlock()
	if resp.Count != want || want != "8" {
		t.Errorf("count-changing write replied %q; want the new version's count %q (8)", resp.Count, want)
	}
}
