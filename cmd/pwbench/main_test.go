package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pw/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBenchJSONGolden pins the machine-readable probe output shape: the
// probe name set and the JSON field names, with the timing-dependent
// values normalized to zero. This is the contract BENCH_*.json diffs and
// the -check guard rely on.
func TestBenchJSONGolden(t *testing.T) {
	cases := []struct{ goldenName, probe string }{
		{"bench_json", "Thm41_ContFreeze_64"},
		{"bench_json_wsd", "WSD_Count_1M"},
	}
	for _, tc := range cases {
		t.Run(tc.probe, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-bench", "-json", "-only", tc.probe}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			var results []experiments.BenchResult
			if err := json.Unmarshal(stdout.Bytes(), &results); err != nil {
				t.Fatalf("output is not BenchResult JSON: %v\n%s", err, stdout.String())
			}
			for i := range results {
				results[i].N = 0
				results[i].NsPerOp = 0
				results[i].AllocsPerOp = 0
				results[i].BytesPerOp = 0
			}
			normalized, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			normalized = append(normalized, '\n')
			golden := filepath.Join("testdata", tc.goldenName+".golden")
			if *update {
				if err := os.WriteFile(golden, normalized, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(normalized, want) {
				t.Errorf("JSON shape drifted:\n--- got ---\n%s--- want ---\n%s", normalized, want)
			}
		})
	}
}

// TestCheckExitCodes exercises the regression guard with synthetic
// baselines, so the test is insensitive to machine speed: an enormous
// baseline (ns/op and allocs/op) can never regress (exit 0), a tiny one
// always does (exit 1), and unreadable baselines are usage errors
// (exit 2).
func TestCheckExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the gated probes twice")
	}
	writeBaseline := func(ns float64) string {
		var results []experiments.BenchResult
		for _, p := range experiments.Probes() {
			if p.Gated {
				results = append(results, experiments.BenchResult{Name: p.Name, N: 1, NsPerOp: ns, AllocsPerOp: int64(ns), Workers: p.Workers})
			}
		}
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-check", writeBaseline(1e15)}, &stdout, &stderr); code != 0 {
		t.Errorf("huge baseline: exit %d, want 0; stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-check", writeBaseline(1e-3)}, &stdout, &stderr); code != 1 {
		t.Errorf("tiny baseline: exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("REGRESSION")) {
		t.Errorf("regression report missing from stderr: %s", stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-check", filepath.Join(t.TempDir(), "absent.json")}, &stdout, &stderr); code != 2 {
		t.Errorf("missing baseline file: exit %d, want 2", code)
	}
}

// TestHistoryAppend: -history appends one decodable JSON line per run,
// timestamped and commit-stamped, and accumulates across runs.
func TestHistoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	var stdout, stderr bytes.Buffer
	for i := 0; i < 2; i++ {
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{"-bench", "-only", "WSD_Count_1M", "-history", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("history holds %d lines, want 2:\n%s", len(lines), data)
	}
	for _, line := range lines {
		var rec historyRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("history line does not decode: %v\n%s", err, line)
		}
		if rec.Time == "" || rec.GitSHA == "" {
			t.Errorf("history record missing stamps: %+v", rec)
		}
		if len(rec.Results) != 1 || rec.Results[0].Name != "WSD_Count_1M" || rec.Results[0].NsPerOp <= 0 {
			t.Errorf("history results implausible: %+v", rec.Results)
		}
	}
}
