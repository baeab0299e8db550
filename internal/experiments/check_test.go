package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gatedProbes() []Probe {
	var gated []Probe
	for _, p := range Probes() {
		if p.Gated {
			gated = append(gated, p)
		}
	}
	return gated
}

// results builds one BenchResult per gated probe; missing ns values
// repeat the last given one, so the tests stay valid as probes are added.
func results(ns ...float64) []BenchResult {
	var out []BenchResult
	for i, p := range gatedProbes() {
		v := ns[len(ns)-1]
		if i < len(ns) {
			v = ns[i]
		}
		out = append(out, BenchResult{Name: p.Name, N: 1, NsPerOp: v, Workers: p.Workers})
	}
	return out
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := results(1000, 2000, 3000)
	cur := results(1200, 2400, 3600) // +20%, inside the 25% gate
	if regs := Check(base, cur, CheckTolerance); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	base := results(1000, 2000, 3000)
	cur := results(1000, 2600, 3000) // middle probe +30%
	regs := Check(base, cur, CheckTolerance)
	if name := gatedProbes()[1].Name; len(regs) != 1 || !strings.Contains(regs[0], name) {
		t.Fatalf("want one regression on %s, got %v", name, regs)
	}
}

func TestCheckFlagsMissingProbes(t *testing.T) {
	base := results(1000, 2000, 3000)
	gated := len(base)
	regs := Check(base[:1], results(1000, 2000, 3000), CheckTolerance)
	if len(regs) != gated-1 {
		t.Fatalf("want %d missing-from-baseline regressions, got %v", gated-1, regs)
	}
	regs = Check(base, nil, CheckTolerance)
	if len(regs) != gated {
		t.Fatalf("want all probes missing from current, got %v", regs)
	}
}

func TestCheckFlagsWorkerMismatch(t *testing.T) {
	base := results(1000, 2000, 3000)
	base[0].Workers = 8 // baseline generated in parallel
	regs := Check(base, results(1000, 2000, 3000), CheckTolerance)
	if len(regs) != 1 || !strings.Contains(regs[0], "worker-count mismatch") {
		t.Fatalf("want one worker-count mismatch, got %v", regs)
	}
}

// b.Run silently renames a duplicate sub-benchmark to Name#01, so a
// repeated registry name would measure under a name nothing tracks.
func TestProbeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Probes() {
		if seen[p.Name] {
			t.Errorf("probe %s registered twice", p.Name)
		}
		seen[p.Name] = true
	}
}

// The committed baseline must hold every gated probe at the worker count
// the registry runs it at, or `pwbench -check` fails on every machine —
// caught here without running a probe.
func TestBaselineHoldsGatedProbes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var baseline []BenchResult
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatalf("BENCH_baseline.json: %v", err)
	}
	workers := make(map[string]int, len(baseline))
	for _, r := range baseline {
		workers[r.Name] = r.Workers
	}
	for _, p := range Probes() {
		w, ok := workers[p.Name]
		switch {
		case !ok && p.Gated:
			t.Errorf("gated probe %s missing from BENCH_baseline.json", p.Name)
		case ok && w != p.Workers:
			t.Errorf("%s: baseline workers %d, registry %d", p.Name, w, p.Workers)
		}
	}
}
