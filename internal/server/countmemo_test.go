package server

import (
	"os"
	"path/filepath"
	"testing"
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
