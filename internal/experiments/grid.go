package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/table"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildKind generates a database of the requested representation kind with
// the given number of rows.
func buildKind(kind table.Kind, rows int, seed int64) *table.Database {
	switch kind {
	case table.KindCodd:
		return table.DB(gen.CoddTable(seed, "T", rows, 2, 2*rows, 0.3))
	case table.KindE:
		return table.DB(gen.ETable(seed, "T", rows, 2, 2*rows, max(2, rows/4), 0.3))
	case table.KindI:
		return table.DB(gen.ITable(seed, "T", rows, 2, 2*rows, max(1, rows/8), 0.3))
	case table.KindG:
		t := gen.ETable(seed, "T", rows, 2, 2*rows, max(2, rows/4), 0.3)
		i := gen.ITable(seed+1, "X", rows, 2, 2*rows, max(1, rows/8), 0.3)
		t.Global = append(t.Global, i.Global...)
		return table.DB(t)
	default:
		return table.DB(gen.CTable(seed, "T", rows, 2, 2*rows, max(2, rows/4), 0.3, 0.5))
	}
}

// Fig2 regenerates the Fig. 2 complexity grid empirically. For each cell
// of the membership/uniqueness column and each containment pair, it runs
// the dispatched algorithm on generated inputs of two sizes and reports
// the measured times; the PTIME region must stay polynomial-like, and the
// hard cells are exercised at reduction-scale sizes by the Fig. 4–10
// experiments (hardness cannot be observed on random instances — random
// inputs are almost always easy; the reductions provide the adversarial
// families).
func Fig2(full bool) *Report {
	r := &Report{ID: "F2", Title: "Fig. 2 — the complexity grid, measured"}
	kinds := []table.Kind{table.KindCodd, table.KindE, table.KindI, table.KindG, table.KindC}

	// Probe sizes per representation: the polynomial cells take large
	// inputs; the NP-hard representations get adversarially slow already
	// at tens of rows on unlucky instances, so their probes stay small —
	// the size gap in this column IS the Fig. 2 story.
	sizesFor := func(kd table.Kind, hardSmall bool) (int, int) {
		if hardSmall {
			return 8, 14
		}
		if full {
			return 16, 256
		}
		return 16, 64
	}

	r.AddRow("problem", "representation", "paper class", "n", "t(n)", "N", "t(N)")

	membClass := map[table.Kind]string{
		table.KindCodd: "PTIME (Thm 3.1(1))",
		table.KindE:    "NP-complete (Thm 3.1(2))",
		table.KindI:    "NP-complete (Thm 3.1(3))",
		table.KindG:    "NP-complete",
		table.KindC:    "NP-complete",
	}
	for _, kd := range kinds {
		hard := kd == table.KindI || kd == table.KindG || kd == table.KindC
		small, large := sizesFor(kd, hard)
		ts, tl := probeMemb(kd, small), probeMemb(kd, large)
		r.AddRow("MEMB(-)", kd.String(), membClass[kd],
			fmt.Sprintf("%d", small), fmtDur(ts), fmt.Sprintf("%d", large), fmtDur(tl))
	}

	uniqClass := map[table.Kind]string{
		table.KindCodd: "PTIME (Thm 3.2(1))",
		table.KindE:    "PTIME (Thm 3.2(1))",
		table.KindI:    "PTIME (Thm 3.2(1))",
		table.KindG:    "PTIME (Thm 3.2(1))",
		table.KindC:    "coNP-complete (Thm 3.2(3))",
	}
	for _, kd := range kinds {
		small, large := sizesFor(kd, kd == table.KindC)
		ts, tl := probeUniq(kd, small), probeUniq(kd, large)
		r.AddRow("UNIQ(-)", kd.String(), uniqClass[kd],
			fmt.Sprintf("%d", small), fmtDur(ts), fmt.Sprintf("%d", large), fmtDur(tl))
	}

	contClass := func(sub, super table.Kind) string {
		switch {
		case super == table.KindCodd && sub.AtMost(table.KindG):
			return "PTIME (Thm 4.1(3))"
		case super == table.KindE && sub.AtMost(table.KindG):
			return "NP (Thm 4.1(2))"
		case super == table.KindCodd || super == table.KindE:
			return "NP/coNP"
		default:
			return "Π₂ᵖ (Thm 4.2)"
		}
	}
	contPairs := []struct{ sub, super table.Kind }{
		{table.KindCodd, table.KindCodd},
		{table.KindE, table.KindCodd},
		{table.KindG, table.KindCodd},
		{table.KindCodd, table.KindE},
		{table.KindG, table.KindE},
		{table.KindCodd, table.KindI},
		{table.KindC, table.KindC},
	}
	// The Π₂ᵖ cells enumerate valuations of every subset-side variable:
	// even single-digit row counts are adversarial. That blow-up is the
	// measurement.
	contSmall, contLarge := 3, 5
	if full {
		contLarge = 6
	}
	for _, p := range contPairs {
		ts := probeCont(p.sub, p.super, contSmall)
		tl := probeCont(p.sub, p.super, contLarge)
		r.AddRow(fmt.Sprintf("CONT(%s ⊆ %s)", p.sub, p.super), "", contClass(p.sub, p.super),
			fmt.Sprintf("%d", contSmall), fmtDur(ts), fmt.Sprintf("%d", contLarge), fmtDur(tl))
	}
	r.AddNote("hard-cell lower bounds are demonstrated by the reduction experiments F4, F6–F12")
	r.AddNote("containment probes use %d and %d rows (the Π₂ᵖ cells blow up beyond that)", contSmall, contLarge)
	return r
}

func probeMemb(kd table.Kind, rows int) time.Duration {
	d := buildKind(kd, rows, int64(rows)*7+int64(kd))
	i, ok := gen.MemberInstance(int64(rows), d)
	if !ok {
		i = d.EmptyInstance()
	}
	return timeIt(func() { _, _ = decide.Options{}.Membership(i, query.Identity{}, d) })
}

func probeUniq(kd table.Kind, rows int) time.Duration {
	d := buildKind(kd, rows, int64(rows)*13+int64(kd))
	i, ok := gen.MemberInstance(int64(rows)+1, d)
	if !ok {
		i = d.EmptyInstance()
	}
	return timeIt(func() { _, _ = decide.Options{}.Uniqueness(query.Identity{}, d, i) })
}

func probeCont(sub, super table.Kind, rows int) time.Duration {
	d0 := buildKind(sub, rows, int64(rows)*17+int64(sub))
	d := buildKind(super, rows, int64(rows)*19+int64(super))
	return timeIt(func() { _, _ = decide.Options{}.Containment(query.Identity{}, d0, query.Identity{}, d) })
}
