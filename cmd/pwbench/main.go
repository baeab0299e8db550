// Command pwbench regenerates the paper's figures as text reports (the
// per-experiment index of DESIGN.md) and runs the tracked perf probes.
//
// Usage:
//
//	pwbench [-full] [-only F3]          # figure reports (text)
//	pwbench -bench [-only Fig3_...]     # perf probes (text)
//	pwbench -bench -json                # perf probes as JSON to stdout
//	pwbench -check BENCH_baseline.json  # regression guard on gated probes
//
// -full widens the sweeps (slower); -only runs a single experiment or
// probe by id. The probes are the registry of internal/experiments
// (experiments.Probes), each at the worker count it pins. The JSON form
// emits an array of {name, n, ns_per_op, allocs_per_op, bytes_per_op,
// workers} objects, the shape tracked across PRs in BENCH_*.json files.
// -check re-runs the probes the registry flags as gated and exits
// nonzero when any is more than 25% slower (ns/op) than the baseline
// file, or when a single-worker one allocates more (allocs/op, an exact
// gate) than the baseline records.
//
// -history FILE appends one JSON line per run — timestamp, git commit,
// and the probe results — to FILE (with -bench or -check). The line is
// appended even when -check finds a regression: the history records
// what the machine measured, the exit code records the verdict. CI
// uploads the accumulated BENCH_history.jsonl as an artifact, so the
// perf trajectory of the gated probes survives across PRs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"pw/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "widen sweeps (slower)")
	only := fs.String("only", "", "run a single experiment or probe by id (e.g. F3, Fig3_MembMatching_128)")
	bench := fs.Bool("bench", false, "run perf probes instead of figure reports")
	asJSON := fs.Bool("json", false, "with -bench: emit machine-readable JSON")
	check := fs.String("check", "", "baseline BENCH_*.json: run gated probes, exit 1 on >25% ns/op regression")
	history := fs.String("history", "", "append one timestamped, git-SHA-stamped JSON line of results to this file (with -bench or -check)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *check != "" {
		return runCheck(*check, *history, stdout, stderr)
	}

	if *bench {
		results := experiments.RunBenchmarks(*only)
		if len(results) == 0 {
			fmt.Fprintf(stderr, "pwbench: no probe matches -only=%s\n", *only)
			return 1
		}
		if err := appendHistory(*history, results); err != nil {
			fmt.Fprintf(stderr, "pwbench: %v\n", err)
			return 1
		}
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(results); err != nil {
				fmt.Fprintf(stderr, "pwbench: %v\n", err)
				return 1
			}
			return 0
		}
		for _, r := range results {
			fmt.Fprintf(stdout, "%-28s %10d iter %14.0f ns/op %8d B/op %6d allocs/op\n",
				r.Name, r.N, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		return 0
	}

	start := time.Now()
	ran := 0
	for _, e := range experiments.Registry() {
		if *only != "" && e.ID != *only {
			continue
		}
		fmt.Fprintln(stdout, e.Run(*full).String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "pwbench: no experiment matches -only=%s\n", *only)
		return 1
	}
	fmt.Fprintf(stdout, "pwbench: %d experiments in %s (full=%v)\n", ran, time.Since(start).Round(time.Millisecond), *full)
	return 0
}

// historyRecord is one line of a BENCH_history.jsonl file: when and at
// what commit the probes ran, and what they measured.
type historyRecord struct {
	Time    string                    `json:"time"`
	GitSHA  string                    `json:"git_sha"`
	Results []experiments.BenchResult `json:"results"`
}

// gitSHA resolves the commit being measured: the working tree's HEAD,
// falling back to CI's GITHUB_SHA, else "unknown" (the record is still
// worth keeping for its timestamp).
func gitSHA() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return sha
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

// appendHistory appends one historyRecord line to path ("" disables).
func appendHistory(path string, results []experiments.BenchResult) error {
	if path == "" || len(results) == 0 {
		return nil
	}
	rec := historyRecord{
		Time:    time.Now().UTC().Format(time.RFC3339),
		GitSHA:  gitSHA(),
		Results: results,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}

// runCheck is the benchmark regression guard: re-run the gated probes
// and compare against the committed baseline.
func runCheck(baselinePath, historyPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "pwbench: %v\n", err)
		return 2
	}
	var baseline []experiments.BenchResult
	if err := json.Unmarshal(data, &baseline); err != nil {
		fmt.Fprintf(stderr, "pwbench: %s: %v\n", baselinePath, err)
		return 2
	}
	var current []experiments.BenchResult
	var broken []string
	for _, p := range experiments.Probes() {
		if !p.Gated {
			continue
		}
		r, ok := p.Measure()
		if !ok {
			broken = append(broken, fmt.Sprintf("%s: probe ran zero iterations (b.Skip or b.Fatal inside the probe)", p.Name))
			continue
		}
		current = append(current, r)
	}
	for _, r := range current {
		fmt.Fprintf(stdout, "%-28s %14.0f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	if err := appendHistory(historyPath, current); err != nil {
		fmt.Fprintf(stderr, "pwbench: %v\n", err)
		return 2
	}
	if len(broken) > 0 {
		for _, msg := range broken {
			fmt.Fprintf(stderr, "pwbench: BROKEN PROBE %s\n", msg)
		}
		return 2
	}
	regressions := experiments.Check(baseline, current, experiments.CheckTolerance)
	if len(regressions) > 0 {
		for _, msg := range regressions {
			fmt.Fprintf(stderr, "pwbench: REGRESSION %s\n", msg)
		}
		return 1
	}
	fmt.Fprintf(stdout, "pwbench: gated probes within %.0f%% of %s\n",
		100*experiments.CheckTolerance, baselinePath)
	return 0
}
