// Package experiments regenerates every figure of the paper as a textual
// report: the Fig. 1 representation hierarchy, the Fig. 2 complexity grid
// (measured empirically), the Fig. 3 matching algorithm, the reduction
// constructions of Figs. 4–12, and per-theorem scaling sweeps. cmd/pwbench
// prints the full set.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	Rows  [][]string // first row is the header
	Notes []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		width := make([]int, len(r.Rows[0]))
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(width) && len(c) > width[i] {
					width[i] = len(c)
				}
			}
		}
		for ri, row := range r.Rows {
			for i, c := range row {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", width[i], c)
			}
			b.WriteByte('\n')
			if ri == 0 {
				for i, w := range width {
					if i > 0 {
						b.WriteString("  ")
					}
					b.WriteString(strings.Repeat("-", w))
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// AddRow appends a row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// timeIt runs fn three times and returns the minimum duration (robust
// against scheduler noise; the deciders are deterministic).
func timeIt(fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// fmtDur renders a duration compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// verdict classifies an observed time-growth ratio per input doubling.
func verdict(ratio float64) string {
	switch {
	case ratio < 8.5:
		return "polynomial-like"
	case ratio < 64:
		return "superpolynomial"
	default:
		return "exponential-like"
	}
}

// Experiment names a lazily-run experiment.
type Experiment struct {
	ID  string
	Run func(full bool) *Report
}

// Registry lists every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"F1", func(bool) *Report { return Fig1() }},
		{"F2", Fig2},
		{"F3", Fig3},
		{"F4", func(bool) *Report { return Fig4() }},
		{"F5", func(bool) *Report { return Fig5() }},
		{"F6", Fig6},
		{"F7", Fig7},
		{"F8", Fig8},
		{"F9", Fig9},
		{"F10", Fig10},
		{"F11", Fig11},
		{"F12", Fig12},
		{"T51", Thm51Codd},
		{"T52", Thm52Bounded},
		{"T53", Thm53Frozen},
	}
}

// All runs every experiment; full widens the sweeps.
func All(full bool) []*Report {
	var out []*Report
	for _, e := range Registry() {
		out = append(out, e.Run(full))
	}
	return out
}
