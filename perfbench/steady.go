package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// steadiness runs each workload (or just name) n times in fresh
// processes, seeds seed..seed+n-1, each for seconds (0: BENCHMARK.json's
// run_seconds), and prints for every end-to-end
// metric its median and quartile spread, (q3-q1)/median, against the
// metric's bound in BENCHMARK.json. A spread at or above a third of the
// bound is flagged NOISY and makes the exit code 1: a benchmark whose
// runs disagree by more than that cannot tell a regression within the
// bound from noise.
func steadiness(name string, seed int64, n int, seconds float64, stdout, stderr io.Writer) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	names := []string{name}
	if name == "" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	code := 0
	for _, wl := range names {
		values := map[string][]float64{}
		for k := 0; k < n; k++ {
			s := seed + int64(k)
			cmd := exec.Command(self, "-workload", wl, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl, s, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl, s, err)
				return 1
			}
			fmt.Fprintf(stdout, "  %s seed %d:", wl, s)
			for _, m := range spec.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Fprintf(stdout, " %s=%.4g", m.Name, v)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s: %d runs\n", wl, n)
		for _, m := range spec.EndToEnd {
			med, spread := spreadOf(values[m.Name])
			verdict := "ok"
			if spread >= m.Bound/3 {
				verdict = "NOISY"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-16s median %14.4f %-6s spread %6.3f  bound %.3f  %s\n",
				m.Name, med, m.Unit, spread, m.Bound, verdict)
		}
	}
	return code
}

// spreadOf returns the median and the quartile spread (q3-q1)/median,
// with quartiles as Python's statistics.quantiles(xs, n=4) computes
// them (the default "exclusive" method).
func spreadOf(xs []float64) (med, spread float64) {
	if len(xs) < 2 {
		return median(xs), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = median(s)
	q := quartiles(s)
	if med == 0 {
		if q[2] == q[0] {
			return 0, 0
		}
		return 0, 1
	}
	return med, (q[2] - q[0]) / med
}

// quartiles is statistics.quantiles(sorted, n=4, method="exclusive").
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return out
}
