// Answer readouts: the possible and certain answer facts of a query,
// read straight off the evaluated parts. No answer decomposition is
// assembled or normalized. The test is the tuple-certainty test of the
// world-set-decomposition papers, applied per independent group of
// parts:
//
//   - parts that share an origin unit are functions of the same input
//     choice, so they are read together as one group (originGroups, the
//     grouping assembly uses); distinct groups own disjoint choice units
//     and are therefore independent, and origin-free parts are constant;
//   - on a non-empty world set a fact is possible iff some group yields
//     it under some joint choice of its units — the union of every
//     part's support;
//   - a fact is absent from some world iff every group yielding it has
//     a joint choice without it (the groups' choices combine freely), so
//     it is certain iff one group — or an origin-free part — yields it
//     under every joint choice of that group's units.
//
// The identity query has no parts to read: its answer world set is the
// input, so its sets are the input's certain facts and support, read in
// place (readInput).
//
// Rows stay interned throughout: the sets hold the parts' (or the
// input's) own tuples, duplicate-free, and names resolve only when
// printed.
package wsdalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

// Answers is the readout of one evaluation: per output relation (a
// schema position), the certain answer rows and the possible answer
// rows, interned and duplicate-free. On the empty world set both are
// empty: no world, no possible fact, and certainty has no canonical
// answer set (decide.CertainAnswers' convention).
type Answers struct {
	schema table.Schema
	cert   [][]sym.Tuple
	poss   [][]sym.Tuple // swept rows; the template products below are not yet in
	tmpls  []tmplRows
	// in is set on the identity query's answer, whose answer world set
	// is the input: its possible rows are the input's stored facts, read
	// in place whenever the possible set is read, plus the products of
	// the input's templates (tmpls). Such an answer keeps its input
	// alive.
	in *wsd.WSD
}

// tmplRows is one answer part that is exactly a template — the lone
// member of its group, no predicates, every origin unit read by one
// column — kept as its per-column value lists. Its possible rows are the
// cross product, expanded only when the possible set is read: a certain
// readout never pays for it, and a product that overflows int is an
// error of the possible set alone. It holds no certain row: each of its
// units is an open slot with two values or more, and changing one
// changes the row.
type tmplRows struct {
	rel   int
	cells [][]sym.ID
}

// Schema returns the answer's relations: the query's output vector.
func (a *Answers) Schema() table.Schema { return a.schema }

// Certain returns the certain rows of relation ri. The slice is shared;
// callers must not mutate it.
func (a *Answers) Certain(ri int) []sym.Tuple { return a.cert[ri] }

// Possible returns the possible rows of relation ri, expanding any
// template products of ri. It fails with ErrEntangled when a product's
// instantiation count overflows int: such a set cannot be materialized.
// Without products the slice may be shared; callers must not mutate it.
func (a *Answers) Possible(ri int) ([]sym.Tuple, error) {
	rows := a.poss[ri]
	if a.in != nil {
		for f := range a.in.StoredTuples() {
			if f.Rel == ri {
				rows = append(rows, f.Tuple)
			}
		}
	}
	expanded := false
	for _, t := range a.tmpls {
		if t.rel != ri {
			continue
		}
		n, ok := productSize(t.cells)
		if !ok || n > math.MaxInt-len(rows) {
			return nil, fmt.Errorf("%w: the possible answers of %s have more facts than fit in memory (an answer template's field product overflows)",
				ErrEntangled, a.schema[ri].Name)
		}
		if !expanded {
			rows = slices.Clip(rows) // never append into the shared set
			expanded = true
		}
		rows = appendProduct(rows, t.cells, n)
	}
	if expanded {
		rows = sortDedupTuples(rows)
	}
	return rows, nil
}

// stats is the readout record: the number of possible rows (template
// products counted, saturating) and certain rows over every relation,
// and the readout's wall time.
func (a *Answers) stats(durUS int64) *ReadoutStats {
	r := &ReadoutStats{DurUS: durUS}
	for ri := range a.schema {
		r.Possible = satAdd(r.Possible, int64(len(a.poss[ri])))
		r.Certain += int64(len(a.cert[ri]))
	}
	if a.in != nil {
		n, ok := a.in.SupportSize() // the stored facts and the template products
		if !ok {
			n = math.MaxInt
		}
		r.Possible = int64(n)
		return r
	}
	for _, t := range a.tmpls {
		n, ok := productSize(t.cells)
		if !ok {
			n = math.MaxInt
		}
		r.Possible = satAdd(r.Possible, int64(n))
	}
	return r
}

// productSize is the number of rows a cross product of value lists
// holds; ok is false when it overflows int.
func productSize(cells [][]sym.ID) (int, bool) {
	n := 1
	for _, cell := range cells {
		if len(cell) == 0 {
			return 0, true
		}
		if n > math.MaxInt/len(cell) {
			return 0, false
		}
		n *= len(cell)
	}
	return n, true
}

// appendProduct appends the n rows of the cross product of cells, last
// column fastest.
func appendProduct(rows []sym.Tuple, cells [][]sym.ID, n int) []sym.Tuple {
	for i := 0; i < n; i++ {
		row := make(sym.Tuple, len(cells))
		for j, k := len(cells)-1, i; j >= 0; j-- {
			row[j] = cells[j][k%len(cells[j])]
			k /= len(cells[j])
		}
		rows = append(rows, row)
	}
	return rows
}

// readout reads the tagged answer parts into an Answers of the given
// schema; asm (nil when not explaining) receives the group sweep's
// estimate and actuals, exactly as the assembly's node does.
func (ev *evaluator) readout(schema table.Schema, parts []taggedPart, asm *PlanNode) (*Answers, error) {
	poss, cert, tmpls, err := ev.readRows(parts, len(schema), true, asm)
	if err != nil {
		return nil, err
	}
	return &Answers{schema: schema, poss: poss, cert: cert, tmpls: tmpls}, nil
}

// readRows is the per-group tuple-certainty test over parts tagged with
// one of nRels relations (see the file comment). It returns per
// relation the certain rows and — when possible is set — the swept
// possible rows, each sorted by ID and duplicate-free, plus the
// template parts whose products complete the possible rows. Groups
// sweep under the space() guard and accounting assembly uses, so
// refusals and plan actuals match the assembled path up to its
// answer-side Normalize. The rows gather in the evaluator's scratch and
// each set is copied out once, exactly (cutFacts).
func (ev *evaluator) readRows(parts []taggedPart, nRels int, possible bool, asm *PlanNode) (poss, cert [][]sym.Tuple, tmpls []tmplRows, err error) {
	groups, merged := ev.originGroups(len(parts), func(i int) []int { return parts[i].p.origins })
	if asm != nil {
		ev.setEst(ev.groupEst(parts, groups, merged))
	}
	pf, cf := ev.possFacts[:0], ev.certFacts[:0]
	if possible {
		n := 0
		for i := range parts {
			if parts[i].p.tmpl == nil {
				n += int(ev.rowsUB(&parts[i].p))
			}
		}
		pf = slices.Grow(pf, n) // the tabulated rows; swept templates append more
	}
	for _, op := range parts {
		if len(op.p.origins) > 0 {
			continue
		}
		for _, t := range op.p.at(nil, ev) { // constant rows: no choice is read
			cf = append(cf, wsd.TupleFact{Rel: op.rel, Tuple: t})
			if possible {
				pf = append(pf, wsd.TupleFact{Rel: op.rel, Tuple: t})
			}
		}
		if asm != nil {
			asm.Act.Parts++
		}
	}
	for g, members := range groups {
		var cells [][]sym.ID
		isTmpl := false
		if len(members) == 1 {
			cells, isTmpl = ev.templateCells(&parts[members[0]].p)
		}
		if isTmpl {
			if possible {
				tmpls = append(tmpls, tmplRows{rel: parts[members[0]].rel, cells: cells})
			}
		} else {
			origins := merged[g]
			if _, err := ev.space(origins); err != nil {
				asm.markError(err)
				return nil, nil, nil, err
			}
			if possible {
				for _, i := range members {
					ev.rows = ev.appendSupport(ev.rows[:0], &parts[i].p)
					for _, t := range ev.rows {
						pf = append(pf, wsd.TupleFact{Rel: parts[i].rel, Tuple: t})
					}
				}
			}
			cf = ev.groupCertain(cf, parts, members, origins)
		}
		if asm != nil {
			asm.Act.Parts++
		}
	}
	ev.possFacts, ev.certFacts = pf, cf
	return cutFacts(pf, nRels), cutFacts(cf, nRels), tmpls, nil
}

// cutFacts sorts and deduplicates facts of nRels relations and copies
// their tuples into one exact-size array, cut per relation with
// three-index slices (nil for a relation without facts).
func cutFacts(fs []wsd.TupleFact, nRels int) [][]sym.Tuple {
	fs = sortDedupFacts(fs)
	out := make([][]sym.Tuple, nRels)
	rows := make([]sym.Tuple, len(fs))
	for i, f := range fs {
		rows[i] = f.Tuple
	}
	for i := 0; i < len(fs); {
		j := i + 1
		for j < len(fs) && fs[j].Rel == fs[i].Rel {
			j++
		}
		out[fs[i].Rel] = rows[i:j:j]
		i = j
	}
	return out
}

// groupEst is the assembly estimate of a grouping, before any group
// sweeps: each group sweeps the joint space of its merged origins (the
// template fast path skips the sweep, which only makes the actual
// smaller), and every group and origin-free part is one part.
func (ev *evaluator) groupEst(parts []taggedPart, groups, merged [][]int) PlanStats {
	s := ev.spaceEst(merged)
	s.Parts = int64(len(groups))
	for i := range parts {
		if len(parts[i].p.origins) == 0 {
			s.Parts++
		}
	}
	return s
}

// appendSupport appends every row a part yields under some choice of
// its own origins: a tabulated part's alternatives directly, a template
// part by sweeping its origins (a space the caller has guarded).
func (ev *evaluator) appendSupport(dst []sym.Tuple, p *part) []sym.Tuple {
	if p.tmpl == nil {
		for _, alt := range p.alts {
			dst = append(dst, alt...)
		}
		return dst
	}
	ev.odometer(p.origins, func(choice []int) bool {
		dst = append(dst, p.at(choice, ev)...)
		return true
	})
	return dst
}

// groupCertain appends to cert the facts one group yields under every
// joint choice of its origins and returns the extended slice: the
// candidates are the rows of the first joint choice, each further choice
// keeps those it yields again, and the sweep stops as soon as none is
// left. Rows are tagged with their relation (one group may feed several)
// in the evaluator's scratch.
func (ev *evaluator) groupCertain(cert []wsd.TupleFact, parts []taggedPart, members, origins []int) []wsd.TupleFact {
	cands, rows := ev.cands[:0], ev.facts[:0]
	first := true
	ev.odometer(origins, func(choice []int) bool {
		rows = rows[:0]
		for _, i := range members {
			for _, t := range parts[i].p.at(choice, ev) {
				rows = append(rows, wsd.TupleFact{Rel: parts[i].rel, Tuple: t})
			}
		}
		rows = sortDedupFacts(rows)
		if first {
			cands, first = append(cands, rows...), false
		} else {
			cands = intersectFacts(cands, rows)
		}
		return len(cands) > 0
	})
	ev.cands, ev.facts = cands, rows
	return append(cert, cands...)
}

// templateCells recognizes a part that is exactly an answer template —
// template body, no surviving predicates, every origin unit referenced
// by exactly one out-column — and returns its per-column value lists:
// a constant column's one value, a unit column's open-slot values
// (shared with the input template, never written). Repeated slot references
// or predicates correlate the columns; those parts are swept instead.
func (ev *evaluator) templateCells(p *part) ([][]sym.ID, bool) {
	t := p.tmpl
	if t == nil || len(t.preds) > 0 {
		return nil, false
	}
	cells := make([][]sym.ID, len(t.out))
	read := 0
	for j, c := range t.out {
		if c.unit < 0 {
			cells[j] = []sym.ID{c.constID}
			continue
		}
		for _, d := range t.out[:j] {
			if d.unit == c.unit {
				return nil, false
			}
		}
		read++
		cells[j] = c.cell
	}
	return cells, read == len(p.origins)
}

// compareFacts orders facts by relation, then tuple by ID.
func compareFacts(a, b wsd.TupleFact) int {
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return slices.Compare(a.Tuple, b.Tuple)
}

// sortDedupFacts sorts facts by (relation, tuple) and removes duplicates
// in place.
func sortDedupFacts(fs []wsd.TupleFact) []wsd.TupleFact {
	slices.SortFunc(fs, compareFacts)
	return slices.CompactFunc(fs, func(a, b wsd.TupleFact) bool { return compareFacts(a, b) == 0 })
}

// intersectFacts keeps the facts of the sorted set a that also occur in
// the sorted set b, in a's storage.
func intersectFacts(a, b []wsd.TupleFact) []wsd.TupleFact {
	out := a[:0]
	j := 0
	for _, f := range a {
		for j < len(b) && compareFacts(b[j], f) < 0 {
			j++
		}
		if j < len(b) && compareFacts(b[j], f) == 0 {
			out = append(out, f)
		}
	}
	return out
}

// Instance copies the possible set (possible) or the certain set into an
// instance shaped by the answer's schema — one relation per output, in
// schema order. Reading the possible set fails as Possible does.
func (a *Answers) Instance(possible bool) (*rel.Instance, error) {
	inst := rel.NewInstance()
	for _, r := range a.schema {
		inst.AddRelation(rel.NewRelation(r.Name, r.Arity))
	}
	rels := inst.Relations()
	if possible && a.in != nil {
		// The identity query's possible set is the input's support:
		// insert it in one pass, with no per-relation row slices. An
		// overflowing template falls through to Possible's error.
		if _, ok := a.in.SupportSize(); ok {
			for f := range a.in.SupportTuples() {
				rels[f.Rel].Insert(f.Tuple)
			}
			return inst, nil
		}
	}
	for ri, out := range rels {
		rows := a.cert[ri]
		if possible {
			var err error
			if rows, err = a.Possible(ri); err != nil {
				return nil, err
			}
		}
		out.Grow(len(rows))
		for _, t := range rows {
			out.Insert(t)
		}
	}
	return inst, nil
}

// answerSet evaluates q as written, unobserved, and copies one answer
// set into an instance.
func answerSet(w *wsd.WSD, q query.Query, possible bool) (*rel.Instance, error) {
	a, _, _, err := Eval(w, q, Options{Decision: Written(q)})
	if err != nil {
		return nil, err
	}
	return a.Instance(possible)
}

// newAnswers returns the empty answer sets of a schema — the answer on
// the empty world set.
func newAnswers(schema table.Schema) *Answers {
	return &Answers{schema: schema, poss: make([][]sym.Tuple, len(schema)), cert: make([][]sym.Tuple, len(schema))}
}

// readInput reads the identity query's answer sets in place: its answer
// world set is the input, so they are the input's certain facts and its
// support. The possible set is left to be read off the input when it is
// read (see Answers.in), each template kept as its unexpanded product.
// pl (nil when not explaining) receives the readout record.
func (ev *evaluator) readInput(pl *Plan) *Answers {
	start := time.Now()
	w := ev.w
	a := newAnswers(w.Schema())
	if !w.Empty() {
		a.in = w
		for f := range w.CertainTuples() {
			a.cert[f.Rel] = append(a.cert[f.Rel], f.Tuple)
		}
		for ri := range a.schema {
			for _, ci := range w.RelTemplates(ri) {
				_, cells, _ := w.TemplateSlots(int(ci))
				a.tmpls = append(a.tmpls, tmplRows{rel: ri, cells: cells})
			}
		}
	}
	if pl != nil {
		pl.Readout = a.stats(sinceUS(start))
	}
	return a
}
