package experiments

import "fmt"

// CheckTolerance is the relative ns/op slack the regression guard allows
// before declaring a regression (0.25 = 25% slower than baseline).
const CheckTolerance = 0.25

// Check compares current probe results against a baseline and returns one
// message per regression: a gated probe (Probe.Gated) whose ns/op exceeds
// baseline by more than tolerance, a gated single-worker probe whose
// allocs/op exceed the baseline's at all, or a gated probe missing from
// either run. The allocation gate is exact because a single-worker
// probe's count is deterministic (every gated one read the same in
// repeated runs); parallel probes' counts move with scheduling, so only
// their ns/op is gated. An empty result means the gate passes.
func Check(baseline, current []BenchResult, tolerance float64) []string {
	base := make(map[string]BenchResult, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	cur := make(map[string]BenchResult, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	var regressions []string
	for _, p := range Probes() {
		if !p.Gated {
			continue
		}
		name := p.Name
		b, okB := base[name]
		c, okC := cur[name]
		switch {
		case !okB:
			regressions = append(regressions,
				fmt.Sprintf("%s: missing from baseline — regenerate it with `pwbench -bench -json`", name))
		case !okC:
			regressions = append(regressions,
				fmt.Sprintf("%s: missing from current run", name))
		case b.Workers != c.Workers:
			// A parallel baseline against a sequential rerun (or vice
			// versa) compares different engines; refuse rather than
			// report a phantom regression. Baselines predating the
			// workers field read as 0 and land here too.
			regressions = append(regressions,
				fmt.Sprintf("%s: worker-count mismatch (baseline %d, current %d) — regenerate the baseline with `pwbench -bench -json`",
					name, b.Workers, c.Workers))
		default:
			if c.NsPerOp > b.NsPerOp*(1+tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
						name, c.NsPerOp, b.NsPerOp,
						100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp, 100*tolerance))
			}
			if p.Workers == 1 && c.AllocsPerOp > b.AllocsPerOp {
				regressions = append(regressions,
					fmt.Sprintf("%s: %d allocs/op vs baseline %d (exact gate)", name, c.AllocsPerOp, b.AllocsPerOp))
			}
		}
	}
	return regressions
}
